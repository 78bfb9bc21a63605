"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (zero) and every modular protocol is pinned
to seed 0 with 100 points per prime.
"""

import math
import time
from fractions import Fraction

import pytest

from semiinv import cli, conjinv, generators as gen, hwv, relations as rel
from semiinv.evalmod import DEFAULT_PRIMES, SMALL_CHAR_PRIMES
from semiinv.poly import QQ, ZZ, Polynomial
from semiinv.verify import RunConfig

import oracles


def report(criterion, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_01_generators_well_formed():
    t0 = time.perf_counter()
    table = gen.generators_of(gen.generic_triple())  # fresh build, no cache
    ok = True
    for n, ijk in enumerate(gen.F_INDEX):
        ok = ok and table.f[n].degrees(gen.BLOCK_WEIGHTS) == {ijk}
    ok = ok and table.h.degrees(gen.BLOCK_WEIGHTS) == {(2, 2, 2)}
    ok = ok and table.q.degrees(gen.BLOCK_WEIGHTS) == {(3, 3, 3)}
    keys = sorted({k for p in table.f for k in p.terms})
    index = {k: i for i, k in enumerate(keys)}
    vectors = []
    for p in table.f:
        vec = [0] * len(keys)
        for k, c in p.terms.items():
            vec[index[k]] = c
        vectors.append(vec)
    ok = ok and oracles.fraction_rank(vectors) == 10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(f"criterion 1: generators well-formed, f-span rank 10 ({elapsed:.1f}s)", ok)


def test_criterion_02_correction_coefficients():
    t0 = time.perf_counter()
    table = gen.generator_table()
    beta_h = hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table))
    beta_q = hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table))
    ok = beta_h == [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(1, 12)]
    ok = ok and beta_q == [
        Fraction(-1, 2),
        Fraction(3, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(f"criterion 2: exact recomputation of both corrections ({elapsed:.1f}s)", ok)


def test_criterion_03_highest_weight_certificates():
    table = gen.generator_table()
    ok = hwv.is_fixed_by_unipotents(table.H)
    ok = ok and hwv.is_fixed_by_unipotents(table.Q)
    ok = ok and hwv.sl3_invariance_certificate(table.H)
    ok = ok and hwv.sl3_invariance_certificate(table.Q)
    s4, t6 = rel.derive_st()
    ok = ok and hwv.sl3_certificate_for_f_polynomial(s4)
    ok = ok and hwv.sl3_certificate_for_f_polynomial(t6)
    report("criterion 3: H, Q, quartic, sextic fixed by all transvections (exact)", ok)


def test_criterion_04_special_triples():
    t0 = time.perf_counter()
    checks = rel.special_triple_checks()
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 60.0
    report(f"criterion 4: skew and Weierstrass evaluations exact ({elapsed:.1f}s)", ok)


def test_criterion_05_derivation_structure():
    t0 = time.perf_counter()
    E = (
        rel.abstract_Q().mul(rel.abstract_Q())
        - rel.abstract_H() ** 3
        - rel.defining_relation().to_ring(QQ)
    )
    q_h_degrees = E.degrees({"q": (1, 0), "h": (0, 1)})
    ok = all(dq == 0 and dh <= 1 for dq, dh in q_h_degrees)
    s4, t6 = rel.derive_st.__wrapped__()
    ok = ok and s4.total_degree() == 4 and t6.total_degree() == 6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(f"criterion 5: h-linear q-free residual; degrees 4 and 6 ({elapsed:.1f}s)", ok)


def test_criterion_06_main_relation_modular():
    t0 = time.perf_counter()
    cfg = RunConfig(
        trials=100, primes=DEFAULT_PRIMES + SMALL_CHAR_PRIMES, seed=0
    ).validated()
    result = rel.verify_main_relation(cfg)
    ok = result.passed
    ok = ok and result.details["evaluations"] == 700
    # the documented failure bound must be at least as strong as (54/p)^100
    d = result.details["degree_bound"]
    ok = ok and d <= 54
    for p in cfg.primes:
        ok = ok and 100 * math.log10(d / p) <= 100 * math.log10(54 / p)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(
        f"criterion 6: relation vanishes, 100 pts x 7 primes, bound <= (54/p)^100 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_theorem1_modular():
    t0 = time.perf_counter()
    cfg = RunConfig(trials=100, primes=DEFAULT_PRIMES, seed=0).validated()
    result = rel.verify_theorem1(cfg)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 600.0
    report(
        f"criterion 7: Q^2 = H^3 + 27HS - 27/4 T, 100 pts x 5 primes ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_08_trace_identities():
    t0 = time.perf_counter()
    ok = conjinv.s_of_product_check().passed
    checks = conjinv.phi_image_checks()
    ok = ok and len(checks) == 12 and all(c.passed for c in checks)
    ok = ok and all(c.passed for c in conjinv.nonvanishing_pair_checks())
    values = conjinv.trace_values_at(*conjinv.nonvanishing_pair())
    ok = ok and values["r"] == -1
    ok = ok and all(values[n] == 0 for n in conjinv.TRACE_NAMES[:9])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(f"criterion 8: s(AB), twelve images, nonvanishing pair ({elapsed:.1f}s)", ok)


def test_criterion_09_trace_relation():
    t0 = time.perf_counter()
    structural = conjinv.nakamoto_structural_check()
    ok = structural.passed
    cfg = RunConfig(trials=100, primes=DEFAULT_PRIMES, seed=0)
    composed = conjinv.verify_nakamoto_composed(cfg)
    ok = ok and composed.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    report(
        f"criterion 9: term-for-term rewrite and vanishing composition "
        f"({composed.mode}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_negative_controls(monkeypatch, capsys):
    mutated_rel = rel.defining_relation() + Polynomial.monomial(
        ZZ, rel.ABSTRACT12, {"h": 2, "f2": 1, "f9": 1}, 1
    )
    monkeypatch.setattr(rel, "defining_relation", lambda: mutated_rel)
    code_a = cli.main(
        ["verify", "main-relation", "--trials", "4", "--primes", "2147483647"]
    )
    monkeypatch.undo()

    mutated_nak = conjinv.nakamoto_polynomial() - Polynomial.monomial(
        ZZ, conjinv.TRACE_VARS, {"k": 3}, 2
    )
    monkeypatch.setattr(conjinv, "nakamoto_polynomial", lambda: mutated_nak)
    code_b = cli.main(
        ["verify", "nakamoto", "--trials", "4", "--primes", "2147483647"]
    )
    monkeypatch.undo()

    wrong_beta = [Fraction(-1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(1, 12)]
    monkeypatch.setattr(hwv, "solve_h_correction", lambda: wrong_beta)
    code_c = cli.main(["verify", "hwv"])
    monkeypatch.undo()
    capsys.readouterr()

    ok = code_a == 1 and code_b == 1 and code_c == 1
    report("criterion 10: mutated relation, trace relation, and beta detected", ok)
