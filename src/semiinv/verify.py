"""Identity-verification runners, configuration, and machine-readable reports.

A check takes an identity as an evalmod.Composition, an outer polynomial at
named leaf polynomials.  It either expands the identity exactly to the zero
polynomial or evaluates it at pseudo-random points over a list of prime
fields.  run_slice_proof does either on a slice of the variables, after an
exact gate certifies that the identity is invariant.  Modular runs are
reproducible from (seed, primes, trials); a prime's trials are evaluated in
one process, TRIAL_CHUNK at a time, by one evaluation of the composition per
chunk, and a trial's point and value do not depend on the others.  The two
triple identities are outer polynomials over the same twelve generators,
whose values and degree bounds they read from their definitions
(relations.generator_definition), not from the leaves.  They share the
generator values of a chunk, remembered by (seed, prime, chunk), which is
every input those values depend on; no identity's value is remembered.
Every other check runs through boolean_check, which times its predicate and
makes a refused build that check's FAIL.  A RunConfig validates itself when
it is constructed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .evalmod import (
    DEFAULT_PRIMES,
    Composition,
    DenominatorNotInvertible,
    check_prime,
    sample_point,
)
from .linalg import LinAlgError
from .poly import PolyError

REPORT_SCHEMA = "semiinv-report/1"


class VerifyUsageError(Exception):
    """Bad configuration, including a prime that divides a denominator; maps to
    exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """What a verify run does, as its report records it (to_json has every
    field).  The verify option of the same name sets each field but jobs.
    Any odd prime below 2**31 is accepted; what a small one allows follows
    from the identity (see run_identity_modular)."""

    mode: str = "modular"  # "exact" | "modular"
    trials: int = 100
    primes: tuple = DEFAULT_PRIMES
    seed: int = 0
    jobs: int = 1  # runs are in-process; kept, pinned to 1, for callers and reports

    def __post_init__(self):
        # every check runs at construction: a config that could skip one could
        # pass a false identity (no evaluations with trials < 1 or no prime).
        # Ints only: the CLI reproduces a report only from integer options, and
        # a list of the default primes would not compare equal to the tuple.
        for key in ("seed", "trials"):
            if not _is_int(getattr(self, key)):
                raise VerifyUsageError(f"{key} must be an int, not {getattr(self, key)!r}")
        if not isinstance(self.primes, tuple) or not all(map(_is_int, self.primes)):
            raise VerifyUsageError(f"primes must be a tuple of ints, not {self.primes!r}")
        if not 0 <= self.seed < 2**64:
            raise VerifyUsageError("seed must fit in 64 bits")
        if self.jobs != 1:
            raise VerifyUsageError("jobs must be 1: runs evaluate in one process")
        if not self.primes:
            raise VerifyUsageError("the prime list is empty")
        if self.mode not in ("exact", "modular"):
            raise VerifyUsageError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise VerifyUsageError("trials must be >= 1")
        if len(set(self.primes)) != len(self.primes):
            # points are keyed by (seed, prime, trial): a repeat re-evaluates them
            raise VerifyUsageError(f"repeated prime in {list(self.primes)}")
        try:
            for p in self.primes:
                check_prime(p)
        except PolyError as exc:
            raise VerifyUsageError(str(exc)) from None

    def validated(self) -> "RunConfig":
        """The config itself: construction has validated it."""
        return self

    def to_json(self) -> dict:
        return dict(asdict(self), primes=list(self.primes))


@dataclass
class CheckResult:
    name: str
    passed: bool
    mode: str
    elapsed_s: float = 0.0
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "mode": self.mode,
            "elapsed_s": round(self.elapsed_s, 3),
            "details": self.details,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def boolean_check(name: str, fn: Callable[[], object]) -> CheckResult:
    """Run one exact check: fn() returns a verdict, or (verdict, details).

    fn reads the builds it needs itself, so elapsed_s includes every build it
    is the first to trigger.  A PolyError or LinAlgError raised inside fn (a
    build refusing its input, say) is this check's FAIL with
    "<ErrorType>: <message>" as its note; the other checks still run."""
    t0 = time.perf_counter()
    notes = []
    try:
        out = fn()
    except (PolyError, LinAlgError) as exc:
        out, notes = False, [f"{type(exc).__name__}: {exc}"]
    ok, details = out if isinstance(out, tuple) else (out, {})
    return CheckResult(name, bool(ok), "exact", time.perf_counter() - t0, details, notes=notes)


# -- modular identity runs ----------------------------------------------------

# trials per batch of a modular run: memory grows with the chunk, not with
# cfg.trials (about 6.5 KB per trial of the 27-coordinate identities)
TRIAL_CHUNK = 1000


def run_identity_modular(name: str, expr: Composition, cfg: RunConfig) -> CheckResult:
    """Evaluate the expression at cfg.trials points per prime; PASS iff every
    evaluation is zero.  Reports the Schwartz-Zippel failure bound per prime,
    or None for a prime p <= degree, where d/p >= 1 bounds nothing.  A prime
    that divides a denominator of the identity is a VerifyUsageError.

    Each prime's trials are taken in consecutive ranges of TRIAL_CHUNK, and
    one eval_sampled call evaluates a range's batch point, drawn by
    sample_point as one int64 array per name.  Points are keyed by (seed,
    prime, trial), so the chunking changes no value.  An expression with a
    Definition reads its leaf values from it by (seed, prime, range), so two
    identities over one definition share them (the triple identities:
    relations.sampled_generator_values); the outer polynomial is evaluated
    on every run.  The point of the first failing trial, in (prime, trial)
    order, is drawn again as a dict of ints for the counterexample."""
    t0 = time.perf_counter()
    names = expr.vars.names
    degree = expr.degree_bound()
    bounds = {}
    for p in cfg.primes:
        bounds[str(p)] = (
            None
            if degree == 0 or p <= degree
            else round(cfg.trials * math.log10(degree / p), 2)
        )
    first, nonzero = None, 0
    for prime in cfg.primes:
        for start in range(0, cfg.trials, TRIAL_CHUNK):
            chunk = range(start, min(start + TRIAL_CHUNK, cfg.trials))
            try:
                values = expr.eval_sampled(cfg.seed, prime, chunk)
            except DenominatorNotInvertible as exc:
                raise VerifyUsageError(f"{name}: {exc}") from None
            values = np.broadcast_to(values, len(chunk))
            failing = np.flatnonzero(values)
            nonzero += failing.size
            if failing.size:
                t = int(failing[0])
                found = (prime, chunk[t], int(values[t]))
                first = found if first is None else min(first, found)

    counterexample = None
    if first is not None:
        prime, trial, value = first
        counterexample = {
            "prime": prime,
            "trial": trial,
            "value": value,
            "point": sample_point(names, cfg.seed, prime, trial),
        }
    details = {
        "degree_bound": degree,
        "trials": cfg.trials,
        "primes": list(cfg.primes),
        "seed": cfg.seed,
        "log10_failure_bound_per_prime": bounds,
        "evaluations": cfg.trials * len(cfg.primes),
        "nonzero_evaluations": nonzero,
    }
    notes = []
    small = [str(p) for p in cfg.primes if degree and p <= degree]
    if small:
        notes.append(
            f"primes {', '.join(small)} do not exceed the degree bound {degree}: "
            "spot-checks of an identity over ZZ that bound nothing"
        )
    return CheckResult(
        name,
        first is None,
        "modular",
        time.perf_counter() - t0,
        details,
        counterexample,
        notes,
    )


def run_identity_exact(name: str, expr: Composition, cfg: RunConfig) -> CheckResult:
    """Fully expand the expression; PASS iff the result is the zero polynomial."""
    t0 = time.perf_counter()
    expanded = expr.expand()
    details = {"expanded_terms": len(expanded)}
    return CheckResult(
        name, expanded.is_zero(), "exact", time.perf_counter() - t0, details
    )


def run_identity_exact_else_modular(name: str, expr: Composition, cfg: RunConfig) -> CheckResult:
    """run_identity_exact under the name that the benchmark's tracer wraps
    and predicts calls to (benchmark/tracing.py, tests/test_benchmark_names.py).
    Every exact expansion runs to the end, so nothing falls back to modular
    evaluation; the name goes once the benchmark stops reading it (ROADMAP
    items 1 and 2)."""
    return run_identity_exact(name, expr, cfg)


# -- exact proofs on a slice ----------------------------------------------------


@dataclass(frozen=True)
class Slice:
    """Variables fixed to scalars, on which an invariant identity vanishes iff
    it vanishes everywhere; the leaf certificate that makes the identity
    invariant; and, when the density argument rescales blocks of variables,
    the grading of those blocks (weights by variable name, as
    Polynomial.degrees takes them) in which the identity must be
    homogeneous.  The density argument tying these together is written at
    each slice's definition (conjinv.PAIR_SLICE, relations.TRIPLE_SLICE)."""

    bindings: Mapping[str, int]
    text: str  # the bindings in words, for the report
    certificate: str  # the group action certify checks, for the report
    certify: Callable[..., bool]  # certify(*polys): True iff every one passes
    weights: Mapping[str, Sequence[int]] | None = None  # None: no rescaling


def run_slice_proof(
    name: str,
    expr: Composition,
    cfg: RunConfig,
    slc: Slice,
    run: Callable[[str, Composition, RunConfig], CheckResult],
) -> CheckResult:
    """Prove expr == 0 from its restriction to a slice.

    The gate comes first and is exact: every leaf of expr must pass
    slc.certify, so the composite of invariants is invariant.  The leaves
    are certified as one stack, slc.certify(*leaves), in one kernel call (a
    stack passes iff every member does); only a failed stack is certified
    again leaf by leaf, to name the leaves that fail.  With slc.weights
    every leaf must have one block multidegree under them and every outer
    term the same block multidegree, computed from the leaf multidegrees.
    A failed gate is a FAIL whose notes name the leaf, never a PASS and
    never a fallback.  Then run(name, ...) checks
    expr.restrict(slc.bindings), which uses the leaves of expr as given, in
    the variables the slice leaves free.  The report records the slice, the
    number of its variables and the certificate with the leaves it
    certified."""
    t0 = time.perf_counter()
    failed = []
    if expr.leaves and not slc.certify(*expr.leaves.values()):
        failed = [leaf for leaf, poly in expr.leaves.items() if not slc.certify(poly)]
    details = {
        "slice": slc.text,
        "slice_variables": sum(n not in slc.bindings for n in expr.vars.names),
        "certificate": slc.certificate,
        "certified_leaves": len(expr.leaves) - len(failed),
    }
    notes = [f"leaf {leaf!r} fails the certificate of {slc.certificate}" for leaf in failed]
    if not failed and slc.weights is not None:
        degrees = {leaf: poly.degrees(slc.weights) for leaf, poly in expr.leaves.items()}
        notes = [
            f"leaf {leaf!r} is not multihomogeneous in the blocks"
            for leaf, d in degrees.items()
            if len(d) != 1
        ]
        if not notes:
            multidegrees = sorted(
                expr.outer.degrees({leaf: d.pop() for leaf, d in degrees.items()})
            )
            if len(multidegrees) == 1:
                details["block_multidegree"] = list(multidegrees[0])
            else:
                notes.append(
                    f"outer terms have {len(multidegrees)} block multidegrees: "
                    + ", ".join(str(list(m)) for m in multidegrees)
                )
    if notes:
        return CheckResult(name, False, "exact", time.perf_counter() - t0, details, None, notes)
    result = run(name, expr.restrict(slc.bindings), cfg)
    result.details = {**details, **result.details}
    result.elapsed_s = time.perf_counter() - t0
    return result


# -- reports -------------------------------------------------------------------


def build_report(suite: str, results: Sequence[CheckResult], cfg: RunConfig) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "suite": suite,
        "config": cfg.to_json(),
        "checks": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


def render_text(report: dict) -> str:
    lines = []
    for chk in report["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        extra = ""
        det = chk.get("details", {})
        if chk["mode"] == "modular":
            extra = (
                f"  points={det.get('trials')}x{len(det.get('primes', []))}"
                f" degree<={det.get('degree_bound')}"
            )
        lines.append(
            f"[{status}] {chk['name']}  ({chk['mode']}, {chk['elapsed_s']:.2f}s){extra}"
        )
        if not chk["passed"] and chk.get("counterexample"):
            ce = chk["counterexample"]
            lines.append(
                f"    counterexample: prime={ce['prime']} trial={ce['trial']} value={ce['value']}"
            )
            lines.append(f"    point: {ce['point']}")
        for note in chk.get("notes", []):
            lines.append(f"    note: {note}")
    verdict = "ALL CHECKS PASSED" if report["passed"] else "FAILURES DETECTED"
    lines.append(f"{verdict} ({report['suite']})")
    return "\n".join(lines)
