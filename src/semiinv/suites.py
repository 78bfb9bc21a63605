"""Named verification suites driven by the CLI and the acceptance tests.

Suites call the providing functions at run time (not at import), so a test
can substitute a mutated relation or a wrong correction table and watch the
suite catch it.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import conjinv, generators as gen, hwv, relations
from .evalmod import SMALL_CHAR_PRIMES
from .linalg import rank
from .poly import PolyError
from .verify import CheckResult, RunConfig, boolean_check


def generators_suite(cfg: RunConfig) -> list:
    table = gen.generator_table()
    checks = []

    def multidegrees_ok():
        for n, ijk in enumerate(gen.F_INDEX):
            if hwv.multidegree(table.f[n]) != ijk:
                return False
        return (
            hwv.multidegree(table.h) == (2, 2, 2)
            and hwv.multidegree(table.q) == (3, 3, 3)
            and hwv.multidegree(table.H) == (2, 2, 2)
            and hwv.multidegree(table.Q) == (3, 3, 3)
        )

    checks.append(boolean_check("generator multidegrees", multidegrees_ok))

    def rank_ten():
        terms = [dict(p.sorted_terms()) for p in table.f]
        keys = sorted(set().union(*terms))
        vectors = [[t.get(k, 0) for k in keys] for t in terms]
        return rank(vectors) == 10

    checks.append(boolean_check("the ten pencil coefficients are linearly independent", rank_ten))
    return checks


def hwv_suite(cfg: RunConfig) -> list:
    table = gen.generator_table()
    factors = gen.correction_factors(table.f, table.h)
    checks = []

    beta_h = hwv.solve_h_correction()
    pinned_h = [c for c, _ in gen.H_CORRECTIONS]
    checks.append(
        boolean_check(
            "quadratic correction of h solves to the pinned coefficients",
            lambda: beta_h == pinned_h,
            solved=[str(b) for b in beta_h],
        )
    )
    # table.H is combine_correction(table.h, factors, H_CORRECTIONS), the sum
    # at the pinned coefficients, so when the solve returns them the solved H
    # is table.H and is certified without being rebuilt; likewise for Q
    solved_h = (
        table.H
        if beta_h == pinned_h
        else gen.combine_correction(table.h, factors, gen.H_CORRECTIONS, beta_h)
    )
    checks.append(
        boolean_check(
            "solved H is fixed by both upper transvections",
            lambda: hwv.is_fixed_by_unipotents(solved_h),
        )
    )

    beta_q = hwv.solve_q_correction()
    pinned_q = [c for c, _ in gen.Q_CORRECTIONS]
    checks.append(
        boolean_check(
            "cubic correction of q solves to the pinned coefficients",
            lambda: beta_q == pinned_q,
            solved=[str(b) for b in beta_q],
        )
    )
    solved_q = (
        table.Q
        if beta_q == pinned_q
        else gen.combine_correction(table.q, factors, gen.Q_CORRECTIONS, beta_q)
    )
    checks.append(
        boolean_check(
            "solved Q is fixed by both upper transvections",
            lambda: hwv.is_fixed_by_unipotents(solved_q),
        )
    )

    checks.append(
        boolean_check(
            "H and Q are SL3-invariant (all four transvections)",
            lambda: hwv.sl3_invariance_certificate(table.H)
            and hwv.sl3_invariance_certificate(table.Q),
        )
    )
    s4, t6 = relations.derive_st()
    checks.append(
        boolean_check(
            "quartic and sextic invariants are SL3-invariant",
            lambda: hwv.sl3_certificate_for_f_polynomial(s4)
            and hwv.sl3_certificate_for_f_polynomial(t6),
        )
    )
    checks.append(
        boolean_check(
            "h alone is not a highest weight vector",
            lambda: not hwv.is_fixed_by_unipotents(table.h),
        )
    )
    checks.append(
        boolean_check(
            "f1..f10, h and q are SL3 x SL3-invariant (row and column derivations)",
            lambda: hwv.sl3_sl3_invariance_certificate(*table.f, table.h, table.q),
        )
    )
    return checks


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
    relation = conjinv.nakamoto_polynomial()
    checks = [
        boolean_check(
            f"trace relation transcription: {conjinv.TRACE_RELATION_TERM_COUNT} terms, pinned digest",
            lambda: len(relation) == conjinv.TRACE_RELATION_TERM_COUNT
            and relations.relation_digest(relation) == conjinv.TRACE_RELATION_DIGEST,
        ),
        boolean_check(
            "trace relation terms all have bidegree (6,6)",
            lambda: relation.degrees(conjinv.TRACE_BIDEGREES) == {(6, 6)},
        ),
        conjinv.nakamoto_structural_check(),
        conjinv.verify_nakamoto_composed(cfg),
    ]
    return checks


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


def _checked(name: str, cfg: RunConfig) -> list:
    """The checks of one suite, or, when it raises PolyError (derive_st
    refusing a relation, say), one FAIL named after the suite with the error
    as its note, so the run ends with a report and exit 1."""
    t0 = time.perf_counter()
    try:
        return SUITES[name](cfg)
    except PolyError as exc:
        return [CheckResult(name, False, "exact", time.perf_counter() - t0, notes=[f"PolyError: {exc}"])]


def run_suite(name: str, cfg: RunConfig) -> list:
    if name == "all":
        return [check for key in SUITE_ORDER for check in _checked(key, cfg)]
    return _checked(name, cfg)
