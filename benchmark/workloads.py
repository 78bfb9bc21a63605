"""The benchmark workloads and the outputs each must produce.

Every workload calls the package's public functions with ``jobs=1`` and the
workload seed as ``RunConfig.seed``.  It returns the verdicts it produced and
the effective configuration; ``Ledger`` records every comparison of an output
with its expected value, so a wrong verdict is counted, never hidden.

* ``certify-default`` runs ``semiinv verify all`` at the default protocol, the
  command a user runs to get the certificate.  It is the only workload where
  the lazy builds, the exact compositions and the modular checks add up.
* ``modular-sweep`` pins ``mode="modular"`` and evaluates the two degree-18
  identities at many points, plus one mutated relation that must FAIL.  Its
  time is in ``evalmod`` and ``verify.run_identity_modular``; it barely
  touches ``poly.mul``, ``poly.substitute`` or ``linalg``.
* ``exact-algebra`` recomputes both correction tables from scratch and runs
  the highest-weight certificates on H and Q, the SL3 certificates on the
  derived invariants and the exact trace-relation composition.  Its time
  is in ``poly``, ``generators.act_on_function`` and ``linalg``; it does no
  ``evalmod`` work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from semiinv import cli, conjinv, generators as gen, hwv, relations
from semiinv.poly import ZZ, Polynomial
from semiinv.verify import RunConfig

# Pinned here independently of the package, so that a change to the package's
# own constants cannot make a wrong output look right.
PINNED_H = [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(1, 12)]
PINNED_Q = [Fraction(n, 2) for n in (-1, 3, -1, -1, -1, -1, 1, 1)]
RELATION_TERMS, RELATION_SHA256 = (
    76, "8ebad63629b778748ac7e4ffa6d05fbe2d2fb1b990876fa8ce0d576b32ccc424")
TRACE_RELATION_TERMS, TRACE_RELATION_SHA256 = (
    170, "72928ba02066c3f81bcf6ddc9c923ad6c0917dab4b6dbe2ceec2821f317fad3e")
STILDE_TERMS, STILDE_SHA256 = (
    25, "1a31d51d56e30d7de90f79468d2d32f63d8547931306e9f9349c9d2bb86d1855")
TTILDE_TERMS, TTILDE_SHA256 = (
    103, "8351448b8a7b54d5a77d9722a336aae0b9bad4eca598d2723ab239614843d37f")

# modular-sweep evaluates each identity at this many points per prime
SWEEP_TRIALS = 200


class Ledger:
    """Every expected-versus-actual comparison a run makes."""

    def __init__(self):
        self.entries = []
        self.verdicts = 0

    def expect(self, name: str, ok: bool):
        self.entries.append({"name": name, "ok": bool(ok)})

    def verdict(self, name: str, passed: bool, expect_pass: bool = True):
        """A PASS/FAIL verdict of the package against the one expected."""
        self.verdicts += 1
        want = "PASS" if expect_pass else "FAIL"
        self.expect(f"{name} is {want}", passed == expect_pass)

    def digest(self, name: str, p: Polynomial, terms: int, sha256: str):
        text = p.text()
        self.expect(
            f"{name}: {terms} terms, pinned digest",
            len(p) == terms and hashlib.sha256(text.encode()).hexdigest() == sha256,
        )


def _coefficients(table) -> list:
    return [c for c, _ in table]


def check_pinned_outputs(ledger: Ledger):
    """Outputs every workload must reproduce: the two relation transcriptions
    and the correction tables H and Q are built from."""
    ledger.digest("defining relation", relations.defining_relation(),
                  RELATION_TERMS, RELATION_SHA256)
    ledger.digest("trace relation", conjinv.nakamoto_polynomial(),
                  TRACE_RELATION_TERMS, TRACE_RELATION_SHA256)
    ledger.expect("H_CORRECTIONS equal the pinned coefficients",
                  _coefficients(gen.H_CORRECTIONS) == PINNED_H)
    ledger.expect("Q_CORRECTIONS equal the pinned coefficients",
                  _coefficients(gen.Q_CORRECTIONS) == PINNED_Q)


# -- the workloads ----------------------------------------------------------------
#
# Each takes (seed, options) and returns (checks, config, verify_outputs): the
# identity verdicts as CheckResult JSON objects, marked "genuine" unless
# planted; the effective configuration; and a function that compares every
# output with its expected value in a Ledger.  The caller stamps the time of
# the last verdict as soon as a workload returns and calls verify_outputs
# after that, outside the timed region.


def certify_default(seed: int, options: dict):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--seed", str(seed), "--format", "json"])
    report = json.loads(out.getvalue())
    checks = [dict(c, genuine=True) for c in report["checks"]]

    def verify_outputs(ledger: Ledger):
        ledger.expect("verify all exits with code 0", code == 0)
        ledger.expect("the report says passed", report["passed"] is True)
        for chk in checks:
            ledger.verdict(chk["name"], chk["passed"])
        # served from the suites' caches at this point
        ledger.expect("solved H correction equals the pinned coefficients",
                      hwv.solve_h_correction() == PINNED_H)
        ledger.expect("solved Q correction equals the pinned coefficients",
                      hwv.solve_q_correction() == PINNED_Q)

    config = {
        "run_config": report["config"],
        "primes_used": {c["name"]: c["details"]["primes"]
                        for c in checks if c["mode"] == "modular"},
    }
    return checks, config, verify_outputs


def _as_json(result, genuine: bool) -> dict:
    # the report rounds elapsed_s to milliseconds; keep every digit here
    return dict(result.to_json(), genuine=genuine, elapsed_s=result.elapsed_s)


def _mutated_relation() -> Polynomial:
    """The relation with one extra term of the same weighted degree."""
    return relations.defining_relation() + Polynomial.monomial(
        ZZ, relations.ABSTRACT12, {"h": 2, "f2": 1, "f9": 1}, 1
    )


def modular_sweep(seed: int, options: dict):
    cfg = RunConfig(mode="modular", trials=options["sweep_trials"], seed=seed,
                    jobs=1).validated()
    genuine = [relations.verify_main_relation(cfg), relations.verify_theorem1(cfg)]
    mutant_cfg = RunConfig(mode="modular", trials=2, primes=cfg.primes[:1],
                           seed=seed, jobs=1).validated()
    mutant = relations.verify_main_relation(mutant_cfg, relation=_mutated_relation())
    checks = [_as_json(r, genuine=True) for r in genuine]
    checks.append(_as_json(mutant, genuine=False))

    def verify_outputs(ledger: Ledger):
        for r in genuine:
            ledger.verdict(r.name, r.passed)
            ledger.expect(f"{r.name}: {cfg.trials} points on each of "
                          f"{len(cfg.primes)} primes",
                          r.details["evaluations"] == cfg.trials * len(cfg.primes))
        ledger.verdict("mutated main relation", mutant.passed,
                       expect_pass=options["flip_mutant"])

    config = {
        "run_config": cfg.to_json(),
        "mutant_run_config": mutant_cfg.to_json(),
        "primes_used": {r.name: r.details["primes"] for r in genuine},
    }
    return checks, config, verify_outputs


def exact_algebra(seed: int, options: dict):
    table = gen.generator_table()
    beta_h = hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table))
    beta_q = hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table))
    h_cert = hwv.is_fixed_by_unipotents(table.H)
    q_cert = hwv.is_fixed_by_unipotents(table.Q)
    s4, t6 = relations.derive_st()
    st_cert = (hwv.sl3_certificate_for_f_polynomial(s4)
               and hwv.sl3_certificate_for_f_polynomial(t6))
    cfg = RunConfig(mode="exact", seed=seed, jobs=1).validated()
    composed = conjinv.verify_nakamoto_composed(cfg)

    # planted mutants, each cheap: a wrong correction coefficient leaves H
    # unfixed, and a perturbed quartic invariant is no longer SL3-invariant
    f_map = {n + 1: table.f[n] for n in range(10)}
    wrong_h = ((PINNED_H[0] * 2, gen.H_CORRECTIONS[0][1]),) + tuple(gen.H_CORRECTIONS[1:])
    h_mutant = hwv.is_fixed_by_unipotents(gen.combine_h_correction(table.h, f_map, wrong_h))
    f5 = Polynomial.variable(s4.ring, s4.vars, "f5")
    s4_mutant = hwv.sl3_certificate_for_f_polynomial(s4 + f5 ** 4)

    checks = [_as_json(composed, genuine=True)]

    def verify_outputs(ledger: Ledger):
        ledger.expect("solved H correction equals H_CORRECTIONS",
                      beta_h == _coefficients(gen.H_CORRECTIONS))
        ledger.expect("solved H correction equals the pinned coefficients",
                      beta_h == PINNED_H)
        ledger.expect("solved Q correction equals Q_CORRECTIONS",
                      beta_q == _coefficients(gen.Q_CORRECTIONS))
        ledger.expect("solved Q correction equals the pinned coefficients",
                      beta_q == PINNED_Q)
        ledger.verdict("H is a highest weight vector", h_cert)
        ledger.verdict("Q is a highest weight vector", q_cert)
        ledger.digest("Stilde", s4, STILDE_TERMS, STILDE_SHA256)
        ledger.digest("Ttilde", t6, TTILDE_TERMS, TTILDE_SHA256)
        ledger.verdict("Stilde and Ttilde are SL3-invariant", st_cert)
        ledger.verdict(composed.name, composed.passed)
        ledger.verdict("H with a wrong correction coefficient is fixed", h_mutant,
                       expect_pass=False)
        ledger.verdict("perturbed Stilde is SL3-invariant", s4_mutant,
                       expect_pass=False)

    config = {"run_config": cfg.to_json(), "composed_mode": composed.mode}
    return checks, config, verify_outputs


RUNNERS = {
    "certify-default": certify_default,
    "modular-sweep": modular_sweep,
    "exact-algebra": exact_algebra,
}


def modular_points(checks) -> tuple:
    """(points, seconds) over the genuine modular identity runs; the time
    includes first-use compilation of the evaluation kernel."""
    runs = [c for c in checks if c["genuine"] and c["mode"] == "modular"]
    return (sum(c["details"]["evaluations"] for c in runs),
            sum(c["elapsed_s"] for c in runs))
