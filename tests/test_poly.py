import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semiinv
from semiinv import generators as gen, poly, relations
from semiinv.poly import (
    QQ,
    ZZ,
    Polynomial,
    PolyError,
    RingMismatch,
    VariableMismatch,
    VariableSet,
)

import oracles

VS = VariableSet(("x", "y", "z"))


def var(name, ring=ZZ):
    return Polynomial.variable(ring, VS, name)


def test_add_cancellation():
    x, y = var("x"), var("y")
    assert (x + y) + (x - y) == 2 * x
    assert ((x ** 2) + (-(x ** 2))).is_zero()


def test_additive_identity():
    p = var("x") * 3 + var("y") ** 2
    assert p + Polynomial.zero(ZZ, VS) == p


def test_mul_difference_of_squares():
    x, y = var("x"), var("y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_mul_unit():
    p = var("x") * 5 - var("z")
    assert p * Polynomial.constant(ZZ, VS, 1) == p


def test_multinomial_coefficient():
    x, y, z = var("x"), var("y"), var("z")
    p = (x + y + z) ** 3
    assert p.coefficient({"x": 1, "y": 1, "z": 1}) == 6


def test_coefficient_of_t_monomial():
    tv = VariableSet(("t1", "t2"))
    t1 = Polynomial.variable(ZZ, tv, "t1")
    t2 = Polynomial.variable(ZZ, tv, "t2")
    p = (t1 + t2) ** 2
    c = p.coefficient_of({"t1": 1, "t2": 1}, ("t1", "t2"))
    assert c == Polynomial.constant(ZZ, VariableSet(()), 2)


def test_coefficient_of_partial():
    tv = VariableSet(("t1", "x", "y"))
    t1 = Polynomial.variable(ZZ, tv, "t1")
    x = Polynomial.variable(ZZ, tv, "x")
    y = Polynomial.variable(ZZ, tv, "y")
    p = t1 ** 2 * x + t1 * y
    # the subset leaves the variable set; the rest keep their order
    xy = VariableSet(("x", "y"))
    assert p.coefficient_of({"t1": 2}, ("t1",)) == Polynomial.variable(ZZ, xy, "x")
    assert p.coefficient_of({"t1": 1}, ("t1",)) == Polynomial.variable(ZZ, xy, "y")
    # the zero exponent vector returns the part free of the subset
    free = p.coefficient_of({}, ("t1",))
    assert free.is_zero() and free.vars == xy


def test_coefficient_of_rejects_outside_subset():
    p = var("x") + var("y")
    with pytest.raises(VariableMismatch):
        p.coefficient_of({"y": 1}, ("x",))


def test_substitute_square():
    av = VariableSet(("a", "b"))
    a = Polynomial.variable(ZZ, av, "a")
    b = Polynomial.variable(ZZ, av, "b")
    p = var("x") ** 2
    # y and z are unused, so they need no binding
    out = p.substitute({"x": a + b})
    assert out == a ** 2 + 2 * a * b + b ** 2


def test_substitute_identity_bindings():
    p = var("x") + var("y")
    out = p.substitute({"x": var("x"), "y": var("y")})
    assert out == p


def test_substitute_scalar():
    """A scalar is not a composition: substitute refuses it and restrict
    fixes the variable, which leaves the variable set."""
    p = var("x")
    with pytest.raises(PolyError, match="restrict"):
        p.substitute({"x": 1})
    assert p.restrict({"x": 1}) == Polynomial.constant(ZZ, VariableSet(("y", "z")), 1)


def test_substitute_refuses_an_unbound_used_variable():
    av = VariableSet(("a",))
    a = Polynomial.variable(ZZ, av, "a")
    p = var("x") * var("y")
    with pytest.raises(VariableMismatch, match="'y'"):
        p.substitute({"x": a})
    assert p.substitute({}) is p
    assert p.substitute({"x": a, "y": a}) == a ** 2


# -- substitute against the term-by-term reference ---------------------------

BV = VariableSet(("a", "b"))


def _coefficients(ring):
    """Small and large integers, or fractions with small and large
    denominators, so that D = lcm of the binding denominators exceeds 1."""
    ints = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    if ring == ZZ:
        return ints
    return st.builds(Fraction, ints, st.one_of(st.integers(1, 12), st.integers(1, 2**66)))


# a target set holding the outer variables too, for true identity bindings
XB = VS.extend(BV.names)


@st.composite
def outers_and_bindings(draw):
    """A ZZ or QQ polynomial in x, y, z whose terms may differ in degree
    (zero and constant ones included), and bindings over a, b (or over x, y,
    z, a, b), each ZZ or QQ, for every variable it uses and maybe for ones
    it does not.  A binding is an identity (x -> x, or x -> a over a, b), a
    scaled monomial c*a^i*b^j (a large, negative or QQ c among them), zero,
    or a random sum of terms, so that one-term bindings, which substitute
    folds into keys, mix with the Horner ones."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    monomials = st.tuples(*[st.integers(0, 3)] * 3)
    outer = Polynomial.from_terms(
        ring, VS, draw(st.dictionaries(monomials, _coefficients(ring), max_size=6))
    )
    target = draw(st.sampled_from((BV, XB)))
    bindings = {}
    for name in VS.names:
        if outer.max_exponent(name) or draw(st.booleans()):
            vring = draw(st.sampled_from((ZZ, QQ)))
            kind = draw(st.sampled_from(("identity", "monomial", "zero", "sum")))
            exps = st.tuples(*[st.integers(0, 2)] * len(target))
            if kind == "identity":
                v = Polynomial.variable(vring, target, name if name in target else "a")
            elif kind == "monomial":
                c = draw(_coefficients(vring).filter(bool))
                v = Polynomial.from_terms(vring, target, {draw(exps): c})
            elif kind == "zero":
                v = Polynomial.zero(vring, target)
            else:
                terms = draw(st.dictionaries(exps, _coefficients(vring), max_size=4))
                v = Polynomial.from_terms(vring, target, terms)
            bindings[name] = v
    if not bindings:
        bindings["x"] = Polynomial.variable(ZZ, target, "a")
    return outer, bindings


def _same_composition(outer, bindings):
    got = outer.substitute(bindings)
    want = oracles.substitute(outer, bindings)
    assert got == want  # ring, variables and terms
    # the exponent bound is the reference's, sum(e_i * maxexp(v_i)) over the
    # terms; the reference drops to 0 on a product with a zero binding
    assert got.maxexp >= want.maxexp
    if all(bindings.values()):
        assert got.maxexp == want.maxexp
    return got


@given(outers_and_bindings())
@settings(max_examples=200)
def test_substitute_matches_the_term_by_term_oracle(case):
    _same_composition(*case)


def test_substitute_cases_match_the_oracle():
    """The cases the Horner evaluation treats apart, each named."""
    x, y, z = var("x"), var("y"), var("z")
    a, b = (Polynomial.variable(ZZ, BV, n) for n in BV.names)
    half_a = a.to_ring(QQ) * Fraction(1, 2)
    third_b = b.to_ring(QQ) * Fraction(2, 3) + 1
    cases = {
        "zero outer": (Polynomial.zero(QQ, VS), {"x": half_a}),
        "constant ZZ outer": (Polynomial.constant(ZZ, VS, -7), {"y": a}),
        "constant QQ outer, QQ binding": (Polynomial.constant(QQ, VS, Fraction(5, 4)), {"z": half_a}),
        "ZZ outer, QQ bindings with D = 6": (x * y * 3 - z ** 2, {"x": half_a, "y": third_b, "z": a + b}),
        "QQ outer, mixed degrees": (
            var("x", QQ) ** 3 * Fraction(1, 5) + var("y", QQ) + 2,
            {"x": third_b, "y": half_a},
        ),
        "unused bound names": (x * 4 + 1, {"x": a, "y": half_a, "z": b}),
        "one group per exponent": (
            x ** 2 * y + x ** 2 * z + x * y + x * y * z + y ** 3,
            {"x": a - b, "y": half_a + b.to_ring(QQ), "z": third_b},
        ),
        "a zero binding": (x * y + y, {"x": a - a, "y": third_b}),
    }
    for name, (outer, bindings) in cases.items():
        got = _same_composition(outer, bindings)
        assert got.vars == BV, name
    assert _same_composition(*cases["zero outer"]).is_zero()
    assert _same_composition(*cases["constant ZZ outer"]) == Polynomial.constant(ZZ, BV, -7)
    got = _same_composition(*cases["constant QQ outer, QQ binding"])
    assert got == Polynomial.constant(QQ, BV, Fraction(5, 4))


def test_substitute_exponent_bound():
    """x^127 -> (a^2)^127 reaches exponent 254 and passes; x^128 and a term
    whose bounds sum past 255 raise PolyError, as the reference does."""
    x, y = var("x"), var("y")
    a = Polynomial.variable(ZZ, BV, "a")
    sq = a.mul(a).to_ring(QQ) * Fraction(1, 3)
    assert _same_composition(x ** 127, {"x": sq}).max_exponent("a") == 254
    for outer, bindings in ((x ** 128, {"x": sq}), (x ** 100 * y ** 100 + x, {"x": sq, "y": a})):
        with pytest.raises(PolyError):
            outer.substitute(bindings)
        with pytest.raises(PolyError):
            oracles.substitute(outer, bindings)


def test_substitute_exponent_bound_with_folded_one_term_bindings():
    """One-term bindings enter a term as key multiples, and their bounds add
    to the term's: a exponent 255 passes with no carry into b's byte, and a
    term whose folded monomials (or folded and Horner factors) reach 256
    raises PolyError, as the reference does."""
    x, y, z = var("x"), var("y"), var("z")
    a, b = (Polynomial.variable(ZZ, BV, n) for n in BV.names)
    got = _same_composition(x ** 128 * y ** 127, {"x": a, "y": a})
    assert got == a ** 255 and got.max_exponent("b") == 0
    for outer, bindings in (
        (Polynomial.monomial(ZZ, VS, {"x": 128, "y": 128}), {"x": a, "y": a}),
        (x ** 200 * z, {"x": a * -2, "z": a ** 60 + b}),
    ):
        with pytest.raises(PolyError):
            outer.substitute(bindings)
        with pytest.raises(PolyError):
            oracles.substitute(outer, bindings)


def test_qq_substitution_multiplies_only_over_zz(monkeypatch):
    """Single-path guard: a QQ composition clears its denominators first, so
    every product formed inside substitute has ZZ operands, both the powers
    built with mul and the sums the product kernel adds in place."""
    s4, _ = relations.derive_st()
    inside, rings, kernel_types = [], [], set()
    mul, substitute, kernel = Polynomial.mul, Polynomial.substitute, poly._add_products

    def recording_kernel(acc, m, a, b, maxexp):
        if inside:
            kernel_types.update(type(c) for _, c in [*a, *b, (0, m)])
        return kernel(acc, m, a, b, maxexp)

    def recording_mul(self, other):
        if inside:
            rings.append((self.ring, other.ring))
        return mul(self, other)

    def flagged_substitute(self, bindings):
        inside.append(True)
        try:
            return substitute(self, bindings)
        finally:
            inside.pop()

    monkeypatch.setattr(Polynomial, "mul", recording_mul)
    monkeypatch.setattr(Polynomial, "substitute", flagged_substitute)
    monkeypatch.setattr(poly, "_add_products", recording_kernel)
    x, y, z = (var(n, QQ) for n in VS.names)
    a, b = (Polynomial.variable(QQ, BV, n) for n in BV.names)
    outer = x ** 2 * y * Fraction(1, 3) + x * z ** 2 + y ** 3 * Fraction(-2, 7)
    got = outer.substitute({"x": a * Fraction(1, 2) + b, "y": a - b * Fraction(3, 4), "z": b})
    assert got.ring == QQ and rings
    assert s4.substitute(oracles.f_span_substitution(gen.U12)) == s4
    assert len(rings) > 10
    assert set(rings) == {(ZZ, ZZ)}
    assert kernel_types == {int}


def test_restrict_examples():
    x, y = var("x"), var("y")
    p = x ** 2 * y + 3 * y - 1
    xz = VariableSet(("x", "z"))
    assert p.restrict({"y": 2}) == Polynomial.from_terms(ZZ, xz, {(2, 0): 2, (0, 0): 5})
    half = p.restrict({"x": Fraction(1, 2)})
    assert half.ring == QQ and half.vars.names == ("y", "z")
    assert half == Polynomial.from_terms(QQ, half.vars, {(1, 0): Fraction(13, 4), (0, 0): -1})
    # an integral Fraction keeps ZZ; a value of 0 kills the terms it touches
    assert p.restrict({"x": Fraction(2, 1), "y": 0}).ring == ZZ
    assert p.restrict({"x": 5, "y": 0}) == Polynomial.constant(ZZ, VariableSet(("z",)), -1)
    with pytest.raises(VariableMismatch):
        p.restrict({"w": 1})
    with pytest.raises(PolyError, match="missing binding for 'x'"):
        var("x").evaluate({"y": 1, "z": 1})


def test_ring_mismatch_raises():
    p = var("x")
    q = Polynomial.variable(QQ, VS, "x")
    with pytest.raises(RingMismatch):
        p + q
    with pytest.raises(RingMismatch):
        p.mul(q)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
@pytest.mark.parametrize("other", [1.5, "a", np.int64(3), np.float64(2.0)], ids=repr)
def test_a_non_polynomial_operand_is_a_ring_mismatch(ring, other):
    """+, - and * route a non-Polynomial operand, on either side, through
    Ring.normalize: a float, a str or a numpy scalar raises RingMismatch, a
    PolyError, never an AttributeError or a TypeError.  (np.int64(3) * x is
    numpy's to dispatch: its object loop hands x a Python int.)"""
    x = var("x", ring)
    calls = [lambda: x + other, lambda: x - other, lambda: x * other]
    if not isinstance(other, np.generic):
        calls += [lambda: other + x, lambda: other - x, lambda: other * x]
    for call in calls:
        with pytest.raises(RingMismatch):
            call()
    assert x + 2 - Fraction(4, 2) == x and 3 * x == x * 3 == x + x + x


def test_varset_mismatch_raises():
    p = var("x")
    q = Polynomial.variable(ZZ, VariableSet(("x", "w")), "x")
    with pytest.raises(VariableMismatch):
        p + q


def test_rational_normalization():
    p = Polynomial.constant(QQ, VS, Fraction(4, 6))
    assert p.coefficient({}) == Fraction(2, 3)
    assert Fraction(2, 3).denominator > 0


def test_integral_fraction_into_zz():
    assert Polynomial.constant(ZZ, VS, Fraction(6, 3)).coefficient({}) == 2
    with pytest.raises(RingMismatch):
        Polynomial.constant(ZZ, VS, Fraction(1, 2))


def test_exponent_bound_guard():
    x = var("x")
    p = x ** 200
    with pytest.raises(PolyError):
        p.mul(p)


def test_graded_lex_order():
    x, y = var("x"), var("y")
    p = x * y + x ** 2 + y + Polynomial.constant(ZZ, VS, 7) + y ** 3
    degrees = [sum(e) for e, _ in p.sorted_terms()]
    assert degrees == sorted(degrees, reverse=True)
    assert p.text() == "y^3 + x^2 + x*y + y + 7"


def test_degrees_examples():
    x, y, z = var("x"), var("y"), var("z")
    p = x ** 2 * y * z + x * x * y * z
    one_each = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    assert p.degrees(one_each) == {(2, 1, 1)}
    assert p.degrees({"x": (1,), "y": (1,)}) == {(3,)}
    q = x + y ** 2
    assert q.degrees(one_each) == {(1, 0, 0), (0, 2, 0)}
    assert Polynomial.zero(ZZ, VS).degrees(one_each) == set()
    with pytest.raises(VariableMismatch):
        p.degrees({"w": (1,)})
    with pytest.raises(PolyError):
        p.degrees({"x": (1,), "y": (1, 0)})
    # weights below 2**32 in magnitude keep the int64 sums from overflowing
    top = x ** 255
    assert top.degrees({"x": (2**32 - 1,)}) == {(255 * (2**32 - 1),)}
    for w in (2**32, -(2**32)):
        with pytest.raises(PolyError):
            top.degrees({"x": (w,)})


def test_convert_roundtrip_and_missing_variable():
    big = VariableSet(("x", "y", "z", "w"))
    p = var("x") * var("y")
    lifted = p.convert(big)
    assert lifted.convert(VS) == p
    q = Polynomial.variable(ZZ, big, "w")
    with pytest.raises(VariableMismatch):
        q.convert(VS)


def test_evaluate_exact():
    x, y = var("x"), var("y")
    p = x ** 3 - 2 * x * y + 5
    assert p.evaluate({"x": 2, "y": 3, "z": 0}) == 8 - 12 + 5
    assert p.evaluate({"x": Fraction(1, 2), "y": 1, "z": 9}) == Fraction(1, 8) - 1 + 5


# -- randomized ring axioms ----------------------------------------------------


def _random_poly(rng, ring, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(3))
        if ring == QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = rng.randint(-9, 9)
        terms[mono] = terms.get(mono, 0) + c
    return Polynomial.from_terms(ring, VS, terms)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
def test_ring_axioms_bulk(ring):
    rng = random.Random(20260810)
    for _ in range(1000):
        p = _random_poly(rng, ring)
        q = _random_poly(rng, ring)
        r = _random_poly(rng, ring)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p.mul(q) == q.mul(p)
        assert p.mul(q.mul(r)) == (p.mul(q)).mul(r)
        assert p.mul(q + r) == p.mul(q) + p.mul(r)


@st.composite
def packaged_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(3))
        terms[mono] = draw(st.integers(-20, 20))
    return Polynomial.from_terms(ZZ, VS, terms)


@given(packaged_polys(), packaged_polys())
@settings(max_examples=300)
def test_mul_matches_naive_oracle(p, q):
    got = oracles.from_package(p.mul(q))
    want = oracles.naive_mul(oracles.from_package(p), oracles.from_package(q))
    assert got == want


@given(packaged_polys(), packaged_polys())
@settings(max_examples=300)
def test_add_matches_naive_oracle(p, q):
    got = oracles.from_package(p + q)
    want = oracles.naive_add(oracles.from_package(p), oracles.from_package(q))
    assert got == want


def test_polarize_examples():
    x, y, z = (Polynomial.variable(ZZ, VS, n) for n in ("x", "y", "z"))
    F = x.mul(x).mul(y) * 3 + z
    # z*d/dx + x*d/dy
    assert oracles.polarize(F, [("z", "x"), ("x", "y")]) == x.mul(y).mul(z) * 6 + x.mul(x).mul(x) * 3
    assert oracles.polarize(F, []).is_zero()
    # the Euler operator x*d/dx multiplies each term by its x-degree
    assert oracles.polarize(F, [("x", "x")]) == x.mul(x).mul(y) * 6
    with pytest.raises(VariableMismatch):
        oracles.polarize(F, [("w", "x")])


@given(
    packaged_polys(),
    st.dictionaries(
        st.sampled_from(VS.names),
        st.tuples(st.integers(-3, 5), st.integers(-3, 5)),
    ),
    st.sampled_from(("w", "t1")),
)
@settings(max_examples=300)
def test_degrees_matches_a_per_term_sum(p, weights, unknown):
    """degrees is the set of per-term sums of exponent * weight over the
    naive terms, an unlisted variable weighing 0; a weighted name that is
    not one of the variables raises."""
    assert p.degrees(weights) == oracles.weighted_degrees(p, weights)
    with pytest.raises(VariableMismatch):
        p.degrees({**weights, unknown: (1, 1)})


@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=8),
    st.dictionaries(
        st.sampled_from(VS.names),
        st.tuples(st.integers(-3, 5), st.integers(-3, 5)),
        min_size=1,
    ),
    st.booleans(),
)
@settings(max_examples=300)
def test_degrees_equals_the_set_of_rows(monomials, weights, homogeneous):
    """degrees is the set-of-rows reference on polynomials kept homogeneous
    under the weights (one row, however many terms), on inhomogeneous ones
    and on the zero polynomial (no rows)."""

    def row(mono):
        return oracles.weighted_degrees(Polynomial.from_terms(ZZ, VS, {mono: 1}), weights).pop()

    if homogeneous:
        monomials = [m for m in monomials if row(m) == row(monomials[0])]
    p = Polynomial.from_terms(ZZ, VS, {m: k + 1 for k, m in enumerate(monomials)})
    want = oracles.weighted_degrees(p, weights)
    assert p.degrees(weights) == want
    if homogeneous:
        assert len(want) == (0 if p.is_zero() else 1)


@given(packaged_polys(), packaged_polys())
@settings(max_examples=200)
def test_polarize_is_a_derivation(p, q):
    """Leibniz rule, and agreement with the t-linear part of x -> x + t*y."""
    D = [("y", "x"), ("z", "y")]
    assert oracles.polarize(p.mul(q), D) == oracles.polarize(p, D).mul(q) + p.mul(oracles.polarize(q, D))
    t = Polynomial.variable(ZZ, VariableSet(("x", "y", "z", "t")), "t")
    v = {n: Polynomial.variable(ZZ, t.vars, n) for n in ("x", "y", "z")}
    shifted = p.substitute({"x": v["x"] + t.mul(v["y"]), "y": v["y"] + t.mul(v["z"]), "z": v["z"]})
    assert shifted.coefficient_of({"t": 1}, ("t",)) == oracles.polarize(p, D)


@given(
    packaged_polys(),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=3, max_size=3
    ),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=300)
def test_restrict_then_evaluate_is_evaluate(p, values, fixed):
    """Fixing part of a point and then the rest gives the value at the whole
    point, which is the naive term-by-term sum; the unfixed names remain, in
    order."""
    part = {n: v for n, v, f in zip(VS.names, values, fixed) if f}
    rest = {n: v for n, v, f in zip(VS.names, values, fixed) if not f}
    naive = oracles.from_package(p)
    want = sum(
        (c * math.prod(v ** e for v, e in zip(values, exps)) for exps, c in naive.items()),
        Fraction(0),
    )
    restricted = p.restrict(part)
    assert restricted.vars.names == tuple(rest)
    assert restricted.evaluate(rest) == p.evaluate(part | rest) == want


# -- the exponent matrix -------------------------------------------------------


@st.composite
def wide_polys(draw):
    """ZZ or QQ polynomials over 1 to 4 variables, exponents anywhere in
    [0, 255]."""
    vs = VariableSet(f"v{i}" for i in range(draw(st.integers(1, 4))))
    ring = draw(st.sampled_from((ZZ, QQ)))
    coeffs = st.integers(-5, 5)
    if ring == QQ:
        coeffs = st.fractions(-5, 5, max_denominator=6)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 255)] * len(vs)), coeffs, max_size=5))
    return Polynomial.from_terms(ring, vs, terms)


@given(st.lists(st.integers(0, 255), min_size=1, max_size=30))
def test_key_bytes_are_the_exponent_vector(exps):
    vs = VariableSet(f"v{i}" for i in range(len(exps)))
    assert vs.pack(exps).to_bytes(len(vs), "big") == bytes(vs.unpack(vs.pack(exps)))


@given(wide_polys())
@settings(max_examples=300)
def test_exponents_match_unpack(p):
    """Row t of exponents() is unpack of the t-th key, and total_degree and
    max_exponent agree with the unpacked vectors; the matrix is built once."""
    m = p.exponents()
    assert m.dtype == np.uint8 and m.shape == (len(p), len(p.vars))
    unpacked = [p.vars.unpack(k) for k in p.terms]
    assert [tuple(row) for row in m.tolist()] == unpacked
    assert p.total_degree() == max(map(sum, unpacked), default=0)
    for i, name in enumerate(p.vars.names):
        assert p.max_exponent(name) == max((e[i] for e in unpacked), default=0)
    assert p.exponents() is m


def test_exponent_sums_by_blocks_match_one_product():
    """exponent_sums widens blocks of at most _BLOCK_BYTES in int64; across
    block edges, on 27, 3 and 1 columns and for a weight vector or matrix,
    its sums equal those of one int64 product of the whole matrix."""
    rng = np.random.default_rng(0)
    for cols in (27, 3, 1):
        rows = 2 * (poly._BLOCK_BYTES // (8 * cols)) + 7
        exps = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        w = rng.integers(0, 2**20, size=(cols, 2), dtype=np.int64)
        for weights in (w, w[:, 0]):
            assert (poly.exponent_sums(exps, weights) == exps.astype(np.int64) @ weights).all()


@given(st.data())
@settings(max_examples=200)
def test_key_layout_round_trips_and_orders_like_the_rows(data):
    """Random uint8 rows within random digit maxima, on up to 12 columns (up
    to 96 bits: int64 and Python-int keys): key_rows gives the rows back,
    distinct rows have distinct keys, and sorting by key is the
    lexicographic sort of the rows."""
    maxima = data.draw(st.lists(st.integers(0, 255), max_size=12))
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, m) for m in maxima)), max_size=20))
    exps = np.array(rows, np.uint8).reshape(len(rows), len(maxima))
    places, radices = poly.key_layout(maxima)
    keys = poly.exponent_sums(exps, places)
    assert keys.dtype == places.dtype == radices.dtype
    assert (poly.key_rows(keys, places, radices) == exps).all()
    assert len(set(keys.tolist())) == len(set(rows))
    assert exps[keys.argsort(kind="stable")].tolist() == sorted(exps.tolist())


@pytest.mark.parametrize("bits, dtype", [(61, np.int64), (62, object)])
def test_key_layout_leaves_int64_at_62_bits(bits, dtype):
    """Keys are int64 while 3 * 2**bits < 2**63, so up to 61 bits: the
    largest key and the largest shifted twice by less than 2**bits (hwv's
    cut keys) fit.  At 62 bits they are Python ints, and stay exact."""
    maxima = [255] * 7 + [2 ** (bits - 56) - 1]
    places, radices = poly.key_layout(maxima)
    assert places.dtype == radices.dtype == dtype
    exps = np.array([maxima, [0] * 8, [1] * 8], np.uint8)
    keys = poly.exponent_sums(exps, places)
    assert keys.tolist() == [2**bits - 1, 0, sum(2 ** (bits - 56 + 8 * k) for k in range(7)) + 1]
    assert (poly.key_rows(keys, places, radices) == exps).all()
    shift = 2 * (2**bits - 1)  # int64 keys would wrap at 62 bits
    assert (keys + shift).tolist() == [k + shift for k in keys.tolist()]
    places, radices = poly.key_layout([])
    assert places.dtype == np.int64 and poly.key_rows(np.zeros(2, np.int64), places, radices).shape == (2, 0)


def test_exponents_edge_cases():
    one = VariableSet(("x",))
    top = Polynomial.monomial(ZZ, one, {"x": 255}, 3) + 1
    assert top.exponents().tolist() == [[255], [0]]
    assert top.total_degree() == top.max_exponent("x") == top.maxexp == 255
    zero = Polynomial.zero(ZZ, VS)
    assert zero.exponents().shape == (0, 3)
    assert zero.total_degree() == zero.max_exponent("y") == 0
    assert Polynomial.constant(ZZ, VariableSet(()), 4).exponents().shape == (1, 0)


def test_exponents_cannot_be_written():
    """The cached matrix is read-only, so no caller can corrupt it."""
    p = var("x") * 2 + var("y") ** 3
    m = p.exponents()
    with pytest.raises(ValueError):
        m[0, 0] = 7
    with pytest.raises(ValueError):
        m.setflags(write=True)
    assert p.exponents().tolist() == [list(VS.unpack(k)) for k in p.terms]
    assert p.total_degree() == 3


# -- re-indexing against the term-by-term references ------------------------------

BINDING_VALUES = st.one_of(
    st.sampled_from((0, 1, -1, 2**70)),
    st.builds(Fraction, st.integers(-9, 9)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 12)).filter(lambda v: v.denominator != 1),
)


def assert_same_polynomial(got, want):
    """Equal terms, ring, variables in order and exponent bound, and each
    coefficient an int over ZZ, a Fraction over QQ."""
    assert got == want
    assert got.vars.names == want.vars.names and got.maxexp == want.maxexp
    assert all(type(c) is (int if got.ring == ZZ else Fraction) for c in got.terms.values())


@given(wide_polys(), st.data())
@settings(max_examples=300)
def test_restrict_coefficient_of_and_convert_match_the_term_by_term_references(p, data):
    """The re-indexing kernel behind restrict, coefficient_of and convert
    agrees with the one-key-at-a-time references of tests/oracles.py: over
    ZZ and QQ, bindings to 0, 1, -1, 2**70 and integral and non-integral
    Fractions, an exponent map read off a term or drawn anywhere, and target
    sets that permute, add or drop variables."""
    names = p.vars.names
    fixed = data.draw(st.lists(st.sampled_from(names), unique=True))
    values = {n: data.draw(BINDING_VALUES) for n in fixed}
    restricted = p.restrict(values)
    assert_same_polynomial(restricted, oracles.restrict(p, values))
    assert restricted.vars.names == tuple(n for n in names if n not in values)
    fractional = any(v.denominator != 1 for v in values.values() if isinstance(v, Fraction))
    assert restricted.ring == (QQ if fractional else p.ring)

    rows = [e for e, _ in p.sorted_terms()]
    source = data.draw(st.sampled_from(rows)) if rows and data.draw(st.booleans()) else None
    exps = {
        n: source[names.index(n)] if source is not None else data.draw(st.integers(0, 255))
        for n in fixed
        if data.draw(st.booleans())
    }
    assert_same_polynomial(p.coefficient_of(exps, fixed), oracles.coefficient_of(p, exps, fixed))

    order = data.draw(st.permutations(names + ("w",)))
    target = VariableSet(order[: data.draw(st.integers(0, len(order)))])
    try:
        want = oracles.convert(p, target)
    except VariableMismatch:
        with pytest.raises(VariableMismatch):
            p.convert(target)
    else:
        assert_same_polynomial(p.convert(target), want)

    with pytest.raises(RingMismatch):
        p.restrict({names[0]: 0.5})
    with pytest.raises(VariableMismatch):
        p.restrict({"w": 1})


def test_only_the_key_layout_shifts_or_converts_keys():
    """The packed layout lives in a few places of poly.py: the constructor's
    maxexp default, Polynomial.variable, Polynomial.exponents (the one
    decoder of keys), VariableSet, and the re-indexing kernel
    Polynomial._reindexed.  Nothing else there shifts bits or converts a key
    to or from bytes."""
    allowed = {
        "Polynomial.__init__",
        "Polynomial.variable",
        "Polynomial.exponents",
        "Polynomial._reindexed",
    }
    offenders = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        shifts = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.LShift, ast.RShift)
        )
        converts = isinstance(node, ast.Attribute) and node.attr in {"to_bytes", "from_bytes", "shift"}
        if (shifts or converts) and scope[:1] != ("VariableSet",) and ".".join(scope[:2]) not in allowed:
            offenders.append(f"{'.'.join(scope)}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(Path(poly.__file__).read_text()), ())
    assert not offenders


# -- the integer numerators ----------------------------------------------------


@st.composite
def zz_or_qq_polys(draw):
    ring = draw(st.sampled_from([ZZ, QQ]))
    coeff = st.integers(-30, 30)
    if ring == QQ:
        coeff = st.fractions(max_denominator=60).filter(lambda c: abs(c.numerator) <= 60)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeff, max_size=6))
    return Polynomial.from_terms(ring, VS, terms)


@given(zz_or_qq_polys())
@settings(max_examples=100)
def test_numerators_are_the_coefficients_over_the_least_common_denominator(p):
    """nums[i] / L is the i-th coefficient in term order, L is the least
    common denominator (no factor of L divides every numerator), ZZ reads
    as (1, its coefficients), and the pair is built once."""
    L, nums = p.numerators()
    coeffs = list(p.terms.values())
    assert isinstance(nums, tuple) and all(type(n) is int for n in nums)
    assert [Fraction(n, L) for n in nums] == coeffs
    assert L == math.lcm(*(Fraction(c).denominator for c in coeffs))
    assert math.gcd(L, *nums) == 1
    if p.ring == ZZ:
        assert (L, nums) == (1, tuple(coeffs))
    assert p.numerators() is p.numerators()


def test_only_the_polynomial_module_touches_its_cache():
    """The cached views are read through exponents() and numerators(): no
    other module of the package names Polynomial._cache."""
    package = Path(semiinv.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "_cache")
        or (isinstance(node, ast.Constant) and node.value == "_cache")
    ]
    assert not offenders


def test_only_the_polynomial_module_reads_terms_or_builds_polynomials():
    """The packed key is known only to poly.py: no other module of the
    package reads Polynomial.terms or calls the Polynomial constructor."""
    package = Path(semiinv.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "terms")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Polynomial"
        )
    ]
    assert not offenders


# -- the product kernel against the naive oracle ---------------------------------


@st.composite
def product_sums(draw):
    """A ring and (c, a, b) triples over VS: operands in the ring or, in a QQ
    sum, in ZZ; zero scalars and zero operands included, and sometimes a
    triple that cancels the one before it."""
    ring = draw(st.sampled_from((ZZ, QQ)))
    ints = st.integers(-9, 9)
    fractions = st.builds(Fraction, ints, st.integers(1, 12))

    def operand():
        oring = draw(st.sampled_from((ZZ, QQ))) if ring == QQ else ZZ
        coeffs = ints if oring == ZZ else fractions
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeffs, max_size=4))
        return Polynomial.from_terms(oring, VS, terms)

    scalars = ints if ring == ZZ else st.one_of(ints, fractions)
    triples = []
    for _ in range(draw(st.integers(0, 4))):
        triples.append((draw(scalars), operand(), operand()))
        if draw(st.booleans()):
            c, a, b = triples[-1]
            triples.append((-c, b, a))
    return ring, triples


@given(product_sums())
@settings(max_examples=200)
def test_sum_of_products_matches_the_naive_oracle(case):
    ring, triples = case
    got = Polynomial.sum_of_products(ring, VS, triples)
    want = {}
    for c, a, b in triples:
        product = oracles.naive_mul(oracles.from_package(a), oracles.from_package(b))
        want = oracles.naive_add(want, oracles.naive_scale(product, c))
    assert (got.ring, got.vars) == (ring, VS)
    assert oracles.from_package(got) == want
    assert all(type(c) is (int if ring == ZZ else Fraction) for c in got.terms.values())
    assert got.maxexp == max(
        (a.maxexp + b.maxexp for c, a, b in triples if c and a and b), default=0
    )


def test_sum_of_products_cases():
    """The empty sum, full cancellation, the exponent guard and the operand
    checks."""
    x, y = var("x"), var("y")
    assert Polynomial.sum_of_products(QQ, VS, []) == Polynomial.zero(QQ, VS)
    half = var("x", QQ) * Fraction(1, 2)
    cancelled = Polynomial.sum_of_products(QQ, VS, [(2, half, y), (-1, x, y)])
    assert cancelled.is_zero() and cancelled.ring == QQ
    top, over = x ** 200, x ** 56
    assert Polynomial.sum_of_products(ZZ, VS, [(1, top, x ** 55)]) == x ** 255
    with pytest.raises(PolyError):
        Polynomial.sum_of_products(ZZ, VS, [(1, top, over)])
    # a triple that adds nothing is not checked against the guard
    zero = Polynomial.zero(ZZ, VS)
    assert Polynomial.sum_of_products(ZZ, VS, [(0, top, over), (1, top, zero)]).is_zero()
    with pytest.raises(RingMismatch):
        Polynomial.sum_of_products(ZZ, VS, [(1, half, y)])
    with pytest.raises(RingMismatch):
        Polynomial.sum_of_products(ZZ, VS, [(Fraction(1, 2), x, y)])
    with pytest.raises(VariableMismatch):
        Polynomial.sum_of_products(ZZ, VS, [(1, x, Polynomial.variable(ZZ, BV, "a"))])


# -- the columnar sum kernel against the dict kernel ------------------------------

# 30 variables: a term with every exponent 2 on both operands makes a column
# maximum of 4, a field of 3 bits, on every column, and 90 bits are past
# int64, so the keys are Python ints (dtype object)
WIDE = VariableSet(f"w{i}" for i in range(30))


@st.composite
def columnar_cases(draw):
    """product_sums' cases, sometimes over WIDE with an all-2 term on every
    nonzero operand (Python-int keys), and sometimes with the coefficients of
    every operand near 2**40 (a bound past 2**63: sums in Python ints)."""
    ring, triples = draw(product_sums())
    wide, big = draw(st.booleans()), draw(st.booleans())

    vars = WIDE if wide else VS

    def widened(p):
        if not (wide or big):
            return p
        scale = 2**40 + draw(st.integers(0, 9)) if big else 1
        terms = {
            row + (0,) * (len(vars) - len(row)): c * scale for row, c in p.sorted_terms()
        }
        if wide and terms:
            terms[(2,) * len(vars)] = p.ring.normalize(draw(st.integers(1, 9)) * scale)
        return Polynomial.from_terms(p.ring, vars, terms)

    return ring, vars, [(c, widened(a), widened(b)) for c, a, b in triples]


def _same_sum(ring, vars, triples):
    got = Polynomial.columnar_sum(ring, vars, triples)
    want = Polynomial.sum_of_products(ring, vars, triples)
    assert got._terms is None
    assert (got.ring, got.vars, got.maxexp) == (want.ring, want.vars, want.maxexp)
    assert len(got) == len(want) and bool(got) == bool(want)
    (L, nums), rows = got.numerators(), got.exponents().tolist()
    assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
    assert L == want.numerators()[0]
    assert dict(zip(map(tuple, rows), nums)) == dict(
        zip(map(tuple, want.exponents().tolist()), want.numerators()[1])
    )
    assert got._terms is None
    assert got == want
    return got


@given(columnar_cases())
@settings(max_examples=200, deadline=None)
def test_columnar_sum_matches_the_dict_kernel(case):
    """columnar_sum is sum_of_products, the dict kernel, term for term: the
    same ring, variables, exponent bound, terms and numerators(), with its
    rows distinct and in increasing order, and no dict built until read."""
    _same_sum(*case)


def test_columnar_sum_paths_and_cases(monkeypatch):
    """The empty sum, zero weights and zero operands, a sum that cancels to
    0, ZZ and QQ weights, an empty variable set, keys and sums in Python
    ints."""
    x, y = var("x"), var("y")
    half = var("x", QQ) * Fraction(1, 2)
    zero = Polynomial.zero(ZZ, VS)
    assert _same_sum(QQ, VS, []).numerators() == (1, ())
    assert _same_sum(ZZ, VS, [(0, x, y), (3, zero, y)]).is_zero()
    cancelled = _same_sum(QQ, VS, [(2, half, y), (-1, x, y)])
    assert cancelled.is_zero() and cancelled.terms == {} and cancelled.maxexp == 2
    assert _same_sum(QQ, VS, [(Fraction(2, 3), half, half + var("y", QQ)), (5, x, y)]).numerators()[0] == 6
    none = VariableSet(())
    three = Polynomial.constant(ZZ, none, 3)
    assert _same_sum(ZZ, none, [(2, three, three)]).coefficient({}) == 18
    dtypes = []
    real = poly.sum_by_key
    monkeypatch.setattr(poly, "sum_by_key", lambda keys, values: dtypes.append(keys.dtype) or real(keys, values))
    ones = Polynomial.from_terms(ZZ, WIDE, {(2,) * 30: 2**40, (1,) * 30: -(2**40) - 1})
    got = _same_sum(ZZ, WIDE, [(2**20, ones, ones), (-1, ones, ones)])
    assert set(dtypes) == {np.dtype(object)}  # WIDE keys are Python ints
    assert max(map(abs, got.numerators()[1])) >= 2**63  # only Python ints hold it


def test_columnar_sum_refuses_what_sum_of_products_refuses():
    """Mixed variable sets, a ring mismatch and an exponent over 255 raise
    the same exception with the same message in both kernels."""
    x = var("x")
    for triples in (
        [(1, x, Polynomial.variable(ZZ, BV, "a"))],
        [(1, var("x", QQ), x)],
        [(Fraction(1, 2), x, x)],
        [(1, x ** 200, x ** 56)],
    ):
        raised = []
        for kernel in (Polynomial.sum_of_products, Polynomial.columnar_sum):
            with pytest.raises(PolyError) as exc:
                kernel(ZZ, VS, triples)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]


def test_a_columnar_polynomial_reads_like_a_dict_polynomial():
    """A polynomial born columnar equals the dict-born one, prints the same,
    restricts, converts and extracts the same, and builds its dict only on
    the first read of terms."""
    x, y, z = (var(n, QQ) for n in VS.names)
    triples = [(Fraction(1, 3), x + y, y - z * 2), (2, z, x * y + 1), (-1, x, x)]
    got = Polynomial.columnar_sum(QQ, VS, triples)
    want = Polynomial.sum_of_products(QQ, VS, triples)
    assert got._terms is None and len(got) == len(want)
    assert got.text() == want.text() and repr(got) == repr(want)
    assert got.restrict({"y": Fraction(1, 2)}) == want.restrict({"y": Fraction(1, 2)})
    assert got.restrict({"x": 0, "z": 3}).text() == want.restrict({"x": 0, "z": 3}).text()
    assert got.coefficient_of({"z": 1}, ("z",)) == want.coefficient_of({"z": 1}, ("z",))
    assert got == want and got._terms is not None
    assert got.terms is got.terms
