import random
from fractions import Fraction

import pytest

from semiinv import conjinv as cj, generators as gen, hwv, relations as rel
from semiinv.poly import ZZ, Polynomial, VariableSet
from semiinv.verify import RunConfig

import oracles


@pytest.fixture(scope="module")
def table():
    return gen.generator_table()


@pytest.fixture(scope="module")
def gens18():
    return cj.trace_generators()


# -- the specialization map ------------------------------------------------------


def test_phi_of_f003_is_one(table):
    p = cj.phi(table.by_name("f003"))
    assert p == Polynomial.constant(ZZ, cj.PAIR_VARS, 1)


def test_phi_of_f300_is_det_a(table, gens18):
    assert cj.phi(table.by_name("f300")) == gens18["d1"]


def test_phi_is_a_ring_homomorphism(table):
    rng = random.Random(5)
    names = gen.TRIPLE_NAMES

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = [0] * 27
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(27)] += 1
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + rng.randint(-4, 4)
        return Polynomial.from_terms(ZZ, gen.TRIPLE_VARS, terms)

    for _ in range(10):
        f, g = rand_poly(), rand_poly()
        assert cj.phi(f.mul(g)) == cj.phi(f).mul(cj.phi(g))
        assert cj.phi(f + g) == cj.phi(f) + cj.phi(g)


# -- trace generators --------------------------------------------------------------


def test_trace_generators_at_identity(gens18):
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    values = cj.trace_values_at(ident, ident)
    assert values["t1"] == 3 and values["s1"] == 3 and values["d1"] == 1
    assert values["t2"] == 3 and values["s2"] == 3 and values["d2"] == 1
    assert values["z"] == 3 and values["w1"] == 3 and values["w2"] == 3
    assert values["k"] == 3 and values["r"] == 3


def test_char_coefficients_match_int_oracle(gens18):
    rng = random.Random(77)
    for _ in range(20):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        point = cj.pair_point(a, b)
        t, s, d = oracles.char_coeffs_int(a)
        assert gens18["t1"].evaluate(point) == t
        assert gens18["s1"].evaluate(point) == s
        assert gens18["d1"].evaluate(point) == d
        ab = oracles.mat_mul_int(a, b)
        assert gens18["z"].evaluate(point) == oracles.mat_trace_int(ab)
        aab = oracles.mat_mul_int(a, ab)
        assert gens18["w1"].evaluate(point) == oracles.mat_trace_int(aab)
        assert gens18["k"].evaluate(point) == oracles.mat_trace_int(
            oracles.mat_mul_int(aab, b)
        )
        word = oracles.mat_word_int(b, b, a, a, b, a)
        assert gens18["r"].evaluate(point) == oracles.mat_trace_int(word)


def test_bidegree_table(gens18):
    for name, p in gens18.items():
        assert p.degrees(oracles.PAIR_WEIGHTS) == {cj.TRACE_BIDEGREES[name]}, name


def test_conjugation_invariance_at_random_points(gens18):
    """Evaluation-level invariance under 20 random rational conjugations."""
    rng = random.Random(2024)
    done = 0
    while done < 20:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        det = (
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        )
        if det == 0:
            continue
        adj = [
            [
                g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
                - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
        ginv = [[adj[i][j] / det for j in range(3)] for i in range(3)]
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]

        def conj(m):
            gm = [[sum(g[i][k] * Fraction(m[k][j]) for k in range(3)) for j in range(3)] for i in range(3)]
            return [[sum(gm[i][k] * ginv[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

        before = cj.trace_values_at(a, b)
        after = cj.trace_values_at(conj(a), conj(b))
        assert before == after
        done += 1


# -- the s(AB) identity --------------------------------------------------------------


def test_s_ab_identity_exact():
    assert cj.s_of_product_check().passed


def test_s_ab_at_identity_pair():
    # s(AB) = 3 and the right side is 3 + 27 - 9 - 9 - 9 = 3
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    values = cj.trace_values_at(ident, ident)
    rhs = (
        values["k"]
        + values["z"] * values["t1"] * values["t2"]
        - values["w1"] * values["t2"]
        - values["w2"] * values["t1"]
        - values["s1"] * values["s2"]
    )
    assert rhs == 3


def test_s_ab_with_identity_a_reduces_to_s_b(gens18):
    """Both sides become s(B) after fixing A = I."""
    a, b = cj.generic_pair()
    _, s_ab, _ = cj.char_coefficients(a * b)
    ident_bindings = {
        f"x1_{i}{j}": (1 if i == j else 0) for i in (1, 2, 3) for j in (1, 2, 3)
    }
    s2 = gens18["s2"]
    lhs = s_ab.restrict(ident_bindings)
    assert lhs == s2.restrict(ident_bindings)
    assert lhs.vars.names == cj.PAIR_NAMES[9:]


# -- the dictionary and the defining relation ------------------------------------------


def test_phi_image_formulas_exact():
    checks = cj.phi_image_checks()
    assert len(checks) == 12
    assert all(c.passed for c in checks)


def test_phi_f111_formula(table, gens18):
    lhs = cj.phi(table.by_name("f111"))
    rhs = gens18["t1"].mul(gens18["t2"]) - gens18["z"]
    assert lhs == rhs


def test_phi_h_formula(table, gens18):
    lhs = cj.phi(table.h)
    rhs = (
        -gens18["k"]
        + gens18["w1"].mul(gens18["t2"])
        - gens18["t1"].mul(gens18["t1"]).mul(gens18["s2"])
        + gens18["s1"].mul(gens18["s2"]) * 2
    )
    assert lhs == rhs


def test_trace_relation_lock():
    nak = cj.nakamoto_polynomial()
    assert len(nak) == cj.TRACE_RELATION_TERM_COUNT == 170
    assert rel.relation_digest(nak) == cj.TRACE_RELATION_DIGEST


def test_trace_relation_named_coefficients():
    nak = cj.nakamoto_polynomial()
    assert nak.coefficient({"r": 2}) == 1
    assert nak.coefficient({"k": 3}) == 1
    assert nak.coefficient({"s1": 2, "s2": 3, "t1": 2}) == 1
    assert nak.coefficient({}) == 0


def test_trace_relation_bidegrees():
    """The weights are keyed by name, so the grading does not depend on the
    order of the variables."""
    nak = cj.nakamoto_polynomial()
    assert nak.degrees(cj.TRACE_BIDEGREES) == {(6, 6)}
    reversed_nak = nak.convert(VariableSet(reversed(cj.TRACE_NAMES)))
    assert reversed_nak.degrees(cj.TRACE_BIDEGREES) == {(6, 6)}


def test_structural_rewrite_matches_term_for_term():
    result = cj.nakamoto_structural_check()
    assert result.passed


def test_structural_rewrite_reports_symmetric_difference(monkeypatch):
    nak = cj.nakamoto_polynomial()
    mutated = nak + Polynomial.monomial(ZZ, cj.TRACE_VARS, {"k": 3}, 1)
    monkeypatch.setattr(cj, "nakamoto_polynomial", lambda: mutated)
    result = cj.nakamoto_structural_check()
    assert not result.passed
    assert result.details["symmetric_difference_terms"] == 1
    assert "k^3" in result.details["symmetric_difference"]


def test_composed_relation_vanishes_exactly():
    """The oracle for the slice proof: the full expansion in all 18 entries."""
    expanded = cj.nakamoto_composed_expr().expand()
    assert expanded.is_zero()
    assert expanded.vars == cj.PAIR_VARS


def test_composed_relation_is_proved_on_the_slice():
    result = cj.verify_nakamoto_composed(RunConfig(trials=4, primes=(2147483647,)))
    assert result.passed
    assert result.mode == "exact"
    assert result.details["slice"] == (
        "x1_ij = 0 for i != j: A = diag(x1_11, x1_22, x1_33), B generic"
    )
    assert result.details["slice_variables"] == 12
    assert result.details["certified_leaves"] == 11
    assert result.details["expanded_terms"] == 0


def test_every_trace_generator_passes_the_conjugation_certificate(gens18):
    assert all(hwv.conjugation_invariance_certificate(p) for p in gens18.values())
    # a product of two entries of one matrix is not invariant
    x = Polynomial.variable(ZZ, cj.PAIR_VARS, "x1_12")
    assert not hwv.conjugation_invariance_certificate(x.mul(x))


def _counting_kernel(monkeypatch) -> list:
    """Wrap hwv.derivation_stream; the list records the stack size of each call."""
    calls, kernel = [], hwv.derivation_stream

    def counting(polys, derivations):
        calls.append(len(polys))
        return kernel(polys, derivations)

    monkeypatch.setattr(hwv, "derivation_stream", counting)
    return calls


def test_a_passing_gate_certifies_the_leaves_in_one_kernel_call(monkeypatch, gens18):
    calls = _counting_kernel(monkeypatch)
    result = cj.verify_nakamoto_composed(RunConfig(trials=4, primes=(2147483647,)))
    assert result.passed and result.details["certified_leaves"] == 11
    assert calls == [11]


def test_a_leaf_that_is_not_conjugation_invariant_fails_the_gate(monkeypatch, gens18):
    """The gate runs on the generators the provider returns, and a failed gate
    is a FAIL that names the leaf in every mode, never a fallback: the stack
    of eleven fails, then each leaf is certified alone."""
    bad = dict(gens18)
    x12 = Polynomial.variable(ZZ, cj.PAIR_VARS, "x1_12")
    y21 = Polynomial.variable(ZZ, cj.PAIR_VARS, "x2_21")
    bad["k"] = gens18["k"] + x12.mul(y21)
    monkeypatch.setattr(cj, "trace_generators", lambda: bad)
    calls = _counting_kernel(monkeypatch)
    for mode in ("modular", "exact"):
        calls.clear()
        result = cj.verify_nakamoto_composed(RunConfig(mode=mode, trials=2))
        assert calls == [11] + [1] * 11
        assert not result.passed
        assert result.mode == "exact"
        assert result.notes == [
            "leaf 'k' fails the certificate of " + cj.PAIR_SLICE.certificate
        ]
        assert result.details["certified_leaves"] == 10
        assert "expanded_terms" not in result.details


def test_composed_relation_at_identity_pair(gens18):
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    values = cj.trace_values_at(ident, ident)
    assert cj.nakamoto_polynomial().evaluate(values) == 0


def test_negative_control_mutated_trace_relation(monkeypatch):
    """An outer mutant is still invariant, so it stays nonzero on the slice."""
    nak = cj.nakamoto_polynomial()
    cfg = RunConfig(trials=4, primes=(2147483647,), seed=0)
    mutants = (
        ({"r": 2}, -2, 358),
        ({"k": 3}, -2, 164),
        ({"r": 1, "k": 1, "t1": 1, "t2": 1}, 1, 1347),
    )
    for term, coefficient, left in mutants:
        mutated = nak + Polynomial.monomial(ZZ, cj.TRACE_VARS, term, coefficient)
        monkeypatch.setattr(cj, "nakamoto_polynomial", lambda: mutated)
        result = cj.verify_nakamoto_composed(cfg)
        assert not result.passed
        assert result.mode == "exact"
        assert result.details["certified_leaves"] == 11
        assert result.details["expanded_terms"] == left


# -- the distinguished pair -----------------------------------------------------------


def test_nonvanishing_pair_oracle():
    """Direct integer matrix arithmetic, independent of the polynomials."""
    a, b = cj.nonvanishing_pair()
    t, s, d = oracles.char_coeffs_int(a)
    assert (t, s, d) == (0, 0, 0)
    t, s, d = oracles.char_coeffs_int(b)
    assert (t, s, d) == (0, 0, 0)
    ab = oracles.mat_mul_int(a, b)
    assert oracles.mat_trace_int(ab) == 0
    aab = oracles.mat_mul_int(a, ab)
    abb = oracles.mat_mul_int(ab, b)
    assert oracles.mat_trace_int(aab) == 0
    assert oracles.mat_trace_int(abb) == 0
    word = oracles.mat_word_int(b, b, a, a, b, a)
    assert oracles.mat_trace_int(word) == -1


def test_nonvanishing_pair_checks():
    checks = cj.nonvanishing_pair_checks()
    assert all(c.passed for c in checks)
    a, b = cj.nonvanishing_pair()
    values = cj.trace_values_at(a, b)
    assert values["r"] == -1
    assert values["k"] == -1  # the tenth generator happens to be -1 here too
    assert all(values[n] == 0 for n in cj.TRACE_NAMES[:9])
