"""Named verification suites driven by the CLI and the acceptance tests.

Every check is a boolean_check (or an identity run) whose predicate reads the
builds it needs -- gen.generator_table, the two correction solves,
relations.defining_relation, relations.derive_st, conjinv.nakamoto_polynomial,
... -- through their module attributes when it runs.  A suite passes its
checks only the RunConfig, so a test substitutes a mutated relation or a
wrong correction table by monkeypatching the module attribute.  A build's
time lands in the elapsed_s of the first check that reads it, and a build
that refuses its input (PolyError, LinAlgError) fails only the checks that
read it.  Any odd prime is accepted: mod 3 both triple identities, whose
outer polynomials have integer coefficients, run as spot-checks.
"""

from __future__ import annotations

from dataclasses import replace

from . import conjinv, generators as gen, hwv, relations
from .evalmod import SMALL_CHAR_PRIMES
from .verify import RunConfig, boolean_check


def generators_suite(cfg: RunConfig) -> list:
    def multidegrees_ok():
        # H and Q are certified of multidegree (2,2,2) and (3,3,3) inside
        # their correction solves (hwv_suite), with no build of table.H or
        # table.Q
        table = gen.generator_table()
        for n, ijk in enumerate(gen.F_INDEX):
            if hwv.multidegree(table.f[n]) != ijk:
                return False
        return hwv.multidegree(table.h) == (2, 2, 2) and hwv.multidegree(table.q) == (3, 3, 3)

    def rank_ten():
        # Nonzero multihomogeneous polynomials of distinct multidegrees are
        # linearly independent: a vanishing combination vanishes in each
        # multidegree, where one of them alone has terms.  So ten distinct
        # multidegrees, none None (zero or not multihomogeneous), prove it.
        degrees = [hwv.multidegree(p) for p in gen.generator_table().f]
        return None not in degrees and len(set(degrees)) == 10

    return [
        boolean_check("generator multidegrees", multidegrees_ok),
        boolean_check("the ten pencil coefficients are linearly independent", rank_ten),
    ]


def _correction(x: str) -> tuple:
    """(solved, pinned) coefficients of the correction of x ("h" or "q")."""
    pinned = [c for c, _ in getattr(gen, f"{x.upper()}_CORRECTIONS")]
    return getattr(hwv, f"solve_{x}_correction")(), pinned


def hwv_suite(cfg: RunConfig) -> list:
    checks = []
    for x, degree in (("h", "quadratic"), ("q", "cubic")):

        def solves(x=x):
            # The solve checks its beta on d*x + sum((d*beta_i) * product_i),
            # d the lcm of beta's denominators, in all 27 coordinates: of x's
            # multidegree (k,k,k), and killed by D12, D23, D21 and D32, so
            # SL3-invariant (hwv.solve_hwv_correction), or it raises and the
            # check FAILs.  table.H, built on first read, is
            # combine_correction(table.h, factors, H_CORRECTIONS), the same
            # sum at the pinned coefficients divided by d; so when beta is
            # the pinned one, both verdicts hold for table.H, which is never
            # built here.  Likewise for Q.
            beta, pinned = _correction(x)
            return beta == pinned, {"solved": [str(b) for b in beta]}

        checks.append(
            boolean_check(
                f"{degree} correction of {x} solves to the pinned coefficients, "
                f"and {x.upper()} is SL3-invariant",
                solves,
            )
        )

    def twelve_invariant():
        table = gen.generator_table()
        return hwv.sl3_sl3_invariance_certificate(*table.f, table.h, table.q)

    return checks + [
        boolean_check(
            "quartic and sextic invariants are SL3-invariant",
            lambda: all(map(hwv.sl3_certificate_for_f_polynomial, relations.derive_st())),
        ),
        boolean_check(
            "h alone is not a highest weight vector",
            lambda: not hwv.is_fixed_by_unipotents(gen.generator_table().h),
        ),
        boolean_check(
            "f1..f10, h and q are SL3 x SL3-invariant (row and column derivations)",
            twelve_invariant,
        ),
    ]


def main_relation_suite(cfg: RunConfig) -> list:
    if cfg.mode == "modular" and cfg.primes == RunConfig().primes:
        # the relation holds over the integers, so spot-check small
        # characteristics on top of the default large primes
        cfg = replace(cfg, primes=cfg.primes + SMALL_CHAR_PRIMES)
    return [relations.verify_main_relation(cfg)]


def theorem1_suite(cfg: RunConfig) -> list:
    return [relations.verify_theorem1(cfg)]


def special_triples_suite(cfg: RunConfig) -> list:
    return relations.special_triple_checks()


def derive_st_suite(cfg: RunConfig) -> list:
    return relations.derive_st_checks()


def phi_images_suite(cfg: RunConfig) -> list:
    return conjinv.phi_image_checks()


def s_ab_suite(cfg: RunConfig) -> list:
    return [conjinv.s_of_product_check()]


def nakamoto_suite(cfg: RunConfig) -> list:
    return [
        boolean_check(
            f"trace relation transcription: {conjinv.TRACE_RELATION_TERM_COUNT} terms, pinned digest",
            lambda: len(conjinv.nakamoto_polynomial()) == conjinv.TRACE_RELATION_TERM_COUNT
            and relations.relation_digest(conjinv.nakamoto_polynomial())
            == conjinv.TRACE_RELATION_DIGEST,
        ),
        boolean_check(
            "trace relation terms all have bidegree (6,6)",
            lambda: conjinv.nakamoto_polynomial().degrees(conjinv.TRACE_BIDEGREES) == {(6, 6)},
        ),
        conjinv.nakamoto_structural_check(),
        conjinv.verify_nakamoto_composed(cfg),
    ]


def nonvanishing_suite(cfg: RunConfig) -> list:
    return conjinv.nonvanishing_pair_checks()


SUITES = {
    "generators": generators_suite,
    "hwv": hwv_suite,
    "main-relation": main_relation_suite,
    "theorem1": theorem1_suite,
    "special-triples": special_triples_suite,
    "derive-st": derive_st_suite,
    "phi-images": phi_images_suite,
    "s-ab": s_ab_suite,
    "nakamoto": nakamoto_suite,
    "nonvanishing": nonvanishing_suite,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, cfg: RunConfig) -> list:
    keys = SUITE_ORDER if name == "all" else (name,)
    return [check for key in keys for check in SUITES[key](cfg)]
