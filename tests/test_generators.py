import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semiinv import generators as gen, hwv, relations, suites
from semiinv.linalg import solve_unique
from semiinv.matrix import PolyMatrix
from semiinv.poly import QQ, ZZ, Polynomial, VariableMismatch, VariableSet
from semiinv.textio import parse_text
from semiinv.verify import RunConfig

import oracles

I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
Z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


@pytest.fixture(scope="module")
def table():
    return gen.generator_table()


def as_const(p):
    assert p.total_degree() == 0
    return p.coefficient({})


def scalar_triple(a1, a2, a3):
    """A triple of plain 3x3 scalar arrays, over a one-variable set."""
    vs = VariableSet(("u",))
    return gen.MatrixTriple(*(PolyMatrix.from_scalars(ZZ, vs, a) for a in (a1, a2, a3)))


# -- the ten pencil coefficients ------------------------------------------------


def test_f_on_identity_zero_zero():
    T = scalar_triple(I3, Z3, Z3)
    fs = gen.generators_of(T).f
    assert as_const(fs[0]) == 1
    assert all(p.is_zero() for p in fs[1:])


def test_f_on_identity_triple_multinomials():
    import math

    T = scalar_triple(I3, I3, I3)
    fs = gen.generators_of(T).f
    for (i, j, k), p in zip(gen.F_INDEX, fs):
        expected = math.factorial(3) // (
            math.factorial(i) * math.factorial(j) * math.factorial(k)
        )
        assert as_const(p) == expected


def test_f300_is_det_a1(table):
    T = gen.generic_triple()
    det = T.a1.determinant()
    assert table.by_name("f300") == det
    assert len(det) == 6


def test_f_via_rowexpansion_oracle(table):
    """The pencil coefficients re-derived with an independent determinant."""
    T = gen.generic_triple()
    w = T.vars.extend(gen.T_NAMES)

    def tv(name):
        return Polynomial.variable(ZZ, w, name)

    pencil = None
    for name, m in zip(("t1", "t2", "t3"), T.components()):
        part = PolyMatrix([[e.convert(w) for e in row] for row in m.rows]).scale(tv(name))
        pencil = part if pencil is None else pencil + part
    det = oracles.rowexp_determinant_package(pencil)
    for (i, j, k), p in zip(gen.F_INDEX, table.f):
        assert det.coefficient_of({"t1": i, "t2": j, "t3": k}, gen.T_NAMES) == p


def test_generator_determinants_table():
    """27 mixed 3x3 determinants for f1..f10, three 6x6 for h and three 9x9
    for q, indexing the 27 coordinates and the zero slot; the table is
    read-only, so no reader can change the definitions."""
    stacks = gen.GENERATOR_DETERMINANTS
    assert list(stacks) == [*gen.F_NAMES, "h", "q"]
    assert [len(stacks[name]) for name in gen.F_NAMES] == [1, 3, 3, 3, 6, 3, 1, 3, 3, 1]
    assert all(stacks[name].shape[1:] == (3, 3) for name in gen.F_NAMES)
    assert stacks["h"].shape == (3, 6, 6)
    assert stacks["q"].shape == (3, 9, 9)
    for idx in stacks.values():
        assert 0 <= idx.min() and idx.max() <= gen.ZERO_SLOT == len(gen.TRIPLE_NAMES)
        with pytest.raises(ValueError):
            idx[0, 0, 0] = 0


# -- h and q ---------------------------------------------------------------------


def test_h_on_identity_triple_is_minus_three():
    # commuting blocks give det([[I, t1*I], [I, I]]) = (1 - t1)^3, whose t1
    # coefficient is -3 (and (t2*t3 - t1^2)^3 in the definition's three
    # variables, whose t1^2 t2^2 t3^2 coefficient is -3)
    T = scalar_triple(I3, I3, I3)
    assert as_const(gen.generators_of(T).h) == -3


def test_h_identity_triple_rowexpansion_oracle():
    tv = VariableSet(("t1", "t2", "t3"))

    def tpoly(name):
        return Polynomial.variable(ZZ, tv, name)

    ident = PolyMatrix.identity(ZZ, tv, 3)
    big = oracles.block_matrix(
        [
            [ident.scale(tpoly("t2")), ident.scale(tpoly("t1"))],
            [ident.scale(tpoly("t1")), ident.scale(tpoly("t3"))],
        ]
    )
    det = oracles.rowexp_determinant_package(big)
    assert det.coefficient({"t1": 2, "t2": 2, "t3": 2}) == -3


def test_q_on_identity_triple_is_three():
    # commuting blocks give det([[0, t1*I, I], [I, 0, I], [I, I, 0]]) =
    # (t1 + 1)^3, whose t1^2 coefficient is 3
    T = scalar_triple(I3, I3, I3)
    assert as_const(gen.generators_of(T).q) == 3


def test_h_q_multidegrees(table):
    assert table.h.degrees(gen.BLOCK_WEIGHTS) == {(2, 2, 2)}
    assert table.q.degrees(gen.BLOCK_WEIGHTS) == {(3, 3, 3)}
    assert table.H.degrees(gen.BLOCK_WEIGHTS) == {(2, 2, 2)}
    assert table.Q.degrees(gen.BLOCK_WEIGHTS) == {(3, 3, 3)}
    for n, ijk in enumerate(gen.F_INDEX):
        assert table.f[n].degrees(gen.BLOCK_WEIGHTS) == {ijk}


def test_f_span_rank_ten(table):
    keys = sorted({k for p in table.f for k in p.terms})
    index = {k: i for i, k in enumerate(keys)}
    vectors = []
    for p in table.f:
        vec = [0] * len(keys)
        for k, c in p.terms.items():
            vec[index[k]] = c
        vectors.append(vec)
    assert oracles.fraction_rank(vectors) == 10


RANK_CHECK = "the ten pencil coefficients are linearly independent"


def _rank_verdict():
    return {r.name: r.passed for r in suites.generators_suite(RunConfig())}[RANK_CHECK]


def test_rank_check_fails_when_f10_is_f1_plus_f2(monkeypatch, table):
    """The rank check reads the ten multidegrees: it passes on the ten pencil
    coefficients and FAILs when f10 is replaced by f1 + f2, which has two."""
    assert _rank_verdict()
    wrong = replace(table, f=table.f[:9] + (table.f[0] + table.f[1],))
    monkeypatch.setattr(gen, "generator_table", lambda: wrong)
    assert not _rank_verdict()


def test_rank_check_fails_on_a_repeated_multidegree(monkeypatch, table):
    """f10 replaced by f1: ten multihomogeneous polynomials, nine distinct
    multidegrees, rank nine; the check FAILs."""
    monkeypatch.setattr(gen, "generator_table", lambda: replace(table, f=table.f[:9] + table.f[:1]))
    assert not _rank_verdict()


# -- special triples --------------------------------------------------------------


def test_skew_triple_kills_all_f():
    assert all(p.is_zero() for p in gen.generators_of(gen.skew_triple()).f)


def test_skew_triple_h_q_are_det_powers():
    skew = gen.generators_of(gen.skew_triple())
    d = gen.skew_parameter_matrix().determinant()
    assert skew.h == d.mul(d)
    assert skew.q == d.mul(d).mul(d)


def test_skew_identity_parameters():
    point = {"x1": 1, "y1": 0, "z1": 0, "x2": 0, "y2": 1, "z2": 0, "x3": 0, "y3": 0, "z3": 1}
    skew_gens = gen.generators_of(gen.skew_triple())
    assert skew_gens.h.evaluate(point) == 1
    assert skew_gens.q.evaluate(point) == 1
    assert skew_gens.H.evaluate(point) == 1
    assert skew_gens.Q.evaluate(point) == 1


def test_weierstrass_pencil():
    w = gen.weierstrass_triple()
    det = oracles.pencil_determinant(w)
    expected = parse_text("t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3", det.vars, ZZ)
    assert det == expected


def test_weierstrass_H_Q_values():
    w = gen.weierstrass_triple()
    a = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "a")
    b = Polynomial.variable(QQ, gen.WEIERSTRASS_VARS, "b")
    w_gens = gen.generators_of(w)
    assert w_gens.H == -b
    assert w_gens.Q == -a


def test_H_on_identity_triple_is_zero():
    # h = -3 and the multinomial f-values give -3 -3 -3 + 6 + 3 = 0
    T = scalar_triple(I3, I3, I3)
    assert gen.generators_of(T).H.is_zero()


# -- the fraction-free correction sum against its QQ oracle ----------------------

ABSTRACT = VariableSet(("q", "h") + gen.F_NAMES)
PINNED_H = [c for c, _ in gen.H_CORRECTIONS]
PINNED_Q = [c for c, _ in gen.Q_CORRECTIONS]
# the benchmark's planted mutant: -1/3 doubled, denominators 3 and 12
WRONG_H = [Fraction(-2, 3)] + PINNED_H[1:]


def assert_same_correction(got, want):
    """Same QQ polynomial, every coefficient a Fraction, same exponent cap."""
    assert got == want
    assert got.ring == QQ and all(type(c) is Fraction for c in got.terms.values())
    assert got.maxexp == want.maxexp


def abstract_variables(ring):
    return {n: Polynomial.variable(ring, ABSTRACT, n) for n in ABSTRACT.names}


def test_combine_correction_matches_the_oracle_on_the_pinned_and_solved_tables(table):
    """H and Q of the generic triple, and the same sums at the solved
    coefficients, which equal the pinned ones."""
    factors = gen.correction_factors(table.f, table.h)
    want_H = oracles.qq_combine_correction(table.h, factors, gen.H_CORRECTIONS)
    want_Q = oracles.qq_combine_correction(table.q, factors, gen.Q_CORRECTIONS)
    assert_same_correction(table.H, want_H)
    assert_same_correction(table.Q, want_Q)
    beta_h, beta_q = hwv.solve_h_correction(), hwv.solve_q_correction()
    assert beta_h == PINNED_H and beta_q == PINNED_Q
    assert_same_correction(gen.combine_correction(table.h, factors, gen.H_CORRECTIONS, beta_h), want_H)
    assert_same_correction(gen.combine_correction(table.q, factors, gen.Q_CORRECTIONS, beta_q), want_Q)


@pytest.mark.parametrize(
    "coeffs, base_scale",
    [(WRONG_H, 1), ([1, -2, 0, 3], 1), (PINNED_H, Fraction(5, 7)), ([2, 0, 0, 0], Fraction(1, 2))],
    ids=["wrong_h-mutant", "int-coefficients", "QQ-base", "int-coefficient-QQ-base"],
)
def test_combine_correction_matches_the_oracle_on_h(table, coeffs, base_scale):
    factors = gen.correction_factors(table.f, table.h)
    base = table.h.to_ring(QQ) * base_scale if base_scale != 1 else table.h
    got = gen.combine_correction(base, factors, gen.H_CORRECTIONS, coeffs)
    assert_same_correction(got, oracles.qq_combine_correction(base, factors, gen.H_CORRECTIONS, coeffs))


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
def test_combine_correction_matches_the_oracle_in_the_abstract_ring(ring):
    v = abstract_variables(ring)
    factors = gen.correction_factors([v[n] for n in gen.F_NAMES], v["h"])
    for base, table_ in ((v["h"], gen.H_CORRECTIONS), (v["q"], gen.Q_CORRECTIONS)):
        got = gen.combine_correction(base, factors, table_)
        assert_same_correction(got, oracles.qq_combine_correction(base, factors, table_))
    assert gen.combine_correction(v["q"], factors, gen.Q_CORRECTIONS) == relations.abstract_Q()


def test_combine_correction_drops_a_term_that_cancels_the_base():
    v = abstract_variables(QQ)
    factors = gen.correction_factors([v[n] for n in gen.F_NAMES], v["h"])
    # base holds -1/12 * f5^2, which the table's +1/12 * f5^2 cancels exactly
    base = v["h"] + v["f5"].mul(v["f5"]) * Fraction(-1, 12)
    got = gen.combine_correction(base, factors, gen.H_CORRECTIONS)
    assert_same_correction(got, oracles.qq_combine_correction(base, factors, gen.H_CORRECTIONS))
    assert got.coefficient({"f5": 2}) == 0 and len(got) == 4
    assert 0 not in got.terms.values()
    only = ((Fraction(-1, 3), (2, 9)),)
    assert gen.combine_correction(v["f2"].mul(v["f9"]) * Fraction(1, 3), factors, only).is_zero()


def test_combine_correction_refuses_mixed_variable_sets(table):
    v = abstract_variables(ZZ)
    with pytest.raises(VariableMismatch):
        gen.combine_correction(v["h"], gen.correction_factors(table.f, table.h), gen.H_CORRECTIONS)


def test_a_cold_q_build_peaks_and_keeps_little_memory():
    """table.Q is one columnar_sum, which fills no dict: under tracemalloc a
    cold Q, on a fresh table whose polynomials have no cached views yet,
    peaks at 1.6 MiB or less and keeps 0.6 MiB or less (Q's exponent matrix
    and numerators, and the views of q, h and the f's that it read).  The
    dict kernel peaked at 2.3 MiB and kept 0.95 MiB, Q's dict of 9216
    Fractions among it.  q is built on its own first read, before the
    measurement starts: what is measured is Q's build."""
    table = gen.generators_of(gen.generic_triple())
    table.q
    tracemalloc.start()
    try:
        Q = table.Q
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(Q) == 9216
    assert peak <= 1.6 * 2**20
    assert kept <= 0.6 * 2**20


def test_a_cold_exponent_matrix_peaks_below_three_times_its_size(table):
    """exponents() decodes the keys of a dict-born polynomial block by block
    into its matrix: a cold q.exponents() peaks below three times the
    matrix, holding one block of key bytes at a time, not one per term."""
    q = Polynomial(table.q.ring, table.q.vars, table.q.terms, table.q.maxexp)
    tracemalloc.start()
    try:
        m = q.exponents()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m == table.q.exponents()).all() and not m.flags.writeable
    assert peak < 3 * m.nbytes


# -- the group action --------------------------------------------------------------


def test_q_is_built_on_first_read_only(cold_builds, monkeypatch):
    """With cold builds, generator_table() builds f1..f10 only, and the
    modular runs of the main relation and of theorem 1 read values mod p
    only: neither builds h or q.  The first read of table.h, and of table.q,
    builds it once through determinant_sum, from the kept generic triple."""
    calls = []
    determinant_sum = gen.determinant_sum

    def counting(T, name):
        calls.append(name)
        return determinant_sum(T, name)

    monkeypatch.setattr(gen, "determinant_sum", counting)
    table = gen.generator_table()
    cfg = RunConfig(trials=2)
    assert relations.verify_main_relation(cfg).passed
    assert relations.verify_theorem1(cfg).passed
    assert calls == list(gen.F_NAMES) and "h" not in vars(table) and "q" not in vars(table)
    assert table.h is table.h is gen.generator_table().h
    assert table.q is table.q is gen.generator_table().q
    assert calls == [*gen.F_NAMES, "h", "q"] and table.triple == gen.generic_triple()
    assert table.h == determinant_sum(gen.generic_triple(), "h")
    assert table.q == determinant_sum(gen.generic_triple(), "q")


def test_act_identity_and_diag():
    T = gen.generic_triple()
    acted = oracles.act_on_triple(I3, T)
    assert acted.a1 == T.a1 and acted.a2 == T.a2 and acted.a3 == T.a3
    g = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    acted = oracles.act_on_triple(g, T)
    assert acted.a1 == T.a1.scale(2)
    assert acted.a2 == T.a2.scale(3)
    assert acted.a3 == T.a3.scale(5)


def test_right_action_composition_random():
    rng = random.Random(11)
    T = gen.generic_triple()
    for _ in range(5):
        g1 = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        g2 = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        lhs = oracles.act_on_triple(g2, oracles.act_on_triple(g1, T))
        prod = [
            [sum(g1[i][k] * g2[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        rhs = oracles.act_on_triple(prod, T)
        assert lhs.components() == rhs.components()


def test_act_on_function_identity(table):
    F = table.by_name("f111")
    assert gen.act_on_function(I3, F) == F


@st.composite
def integer_actions(draw):
    """An integer 3x3 matrix whose columns are unit vectors e_c (so that
    act_on_function binds their coordinates to themselves), multiples of
    e_c or arbitrary, and a ZZ or QQ polynomial of degree at most 4 in the
    27 coordinates."""
    columns = []
    for c in range(3):
        unit = [int(r == c) for r in range(3)]
        scaled = st.integers(-3, 3).map(lambda a, unit=unit: [a * u for u in unit])
        arbitrary = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
        columns.append(draw(st.one_of(st.just(unit), scaled, arbitrary)))
    g = [[columns[c][r] for c in range(3)] for r in range(3)]
    ring = draw(st.sampled_from((ZZ, QQ)))
    coeffs = st.integers(-5, 5) if ring == ZZ else st.fractions(max_denominator=6)
    monomials = st.lists(st.sampled_from(gen.TRIPLE_NAMES), max_size=4).map(
        lambda names: tuple(names.count(n) for n in gen.TRIPLE_NAMES)
    )
    F = Polynomial.from_terms(ring, gen.TRIPLE_VARS, draw(st.dictionaries(monomials, coeffs, max_size=5)))
    return g, F


@given(integer_actions())
@settings(max_examples=60, deadline=None)
def test_act_on_function_matches_the_oracle_route(case):
    """The acted linear forms composed by Polynomial.substitute agree with the
    generic triple acted on entry by entry and composed term by term."""
    g, F = case
    assert gen.act_on_function(g, F) == oracles.act_on_function(g, F)


def test_span_checks_build_the_acted_forms_once_per_transvection(table, monkeypatch):
    """The span checks' 40 actions, four transvections on each of f1..f10,
    build the 27 acted forms four times, once per transvection, and still
    compose each with one substitute call; an action given the forms equals
    the oracle's."""
    build, substitute, builds, calls = gen.acted_forms, Polynomial.substitute, [], []

    def counted_build(g, vars):
        builds.append(g)
        return build(g, vars)

    def counted(F, bindings):
        calls.append(F)
        return substitute(F, bindings)

    monkeypatch.setattr(gen, "acted_forms", counted_build)
    monkeypatch.setattr(Polynomial, "substitute", counted)
    hwv._span_action_verified.cache_clear()
    try:
        for which in gen.ELEMENTARY_TRANSVECTIONS:
            hwv._span_action_verified(which)
    finally:
        monkeypatch.undo()
        hwv._span_action_verified.cache_clear()
    assert builds == list(gen.ELEMENTARY_TRANSVECTIONS.values())
    assert calls == [f for _ in builds for f in table.f]
    for g in builds:
        forms = gen.acted_forms(g, gen.TRIPLE_VARS)
        assert [gen.act_on_function(g, f, forms) for f in table.f] == [oracles.act_on_function(g, f) for f in table.f]


def decompose_in_f_span(F):
    """Exact coordinates of F in the basis f1..f10; raises
    linalg.InconsistentSystem if F is outside the span."""
    fs = [p.to_ring(QQ) for p in gen.generator_table().f]
    target = F.convert(gen.TRIPLE_VARS).to_ring(QQ)
    keys = set(target.terms).union(*(p.terms for p in fs))
    rows = [
        (tuple(p.terms.get(key, 0) for p in fs), target.terms.get(key, 0))
        for key in sorted(keys)
    ]
    return solve_unique(rows, 10)


def test_action_on_f_span_membership(table):
    """Transvection images of every f decompose exactly in the f-basis, and
    the decomposition matches the matrix induced on the pencil variables."""
    for g in (gen.U12, gen.U23):
        mat = oracles.f_action_matrix(g)
        for n in range(10):
            acted = gen.act_on_function(g, table.f[n])
            coords = decompose_in_f_span(acted)
            assert coords == mat[n]


def test_u12_moves_f030_but_fixes_f300(table):
    f300 = table.by_name("f300")
    f030 = table.by_name("f030")
    assert gen.act_on_function(gen.U12, f300) == f300
    acted = gen.act_on_function(gen.U12, f030)
    assert acted != f030
    expected = (
        table.by_name("f300")
        + table.by_name("f210")
        + table.by_name("f120")
        + table.by_name("f030")
    )
    assert acted == expected


def test_unipotent_composition(table):
    u12u23 = [
        [sum(gen.U12[i][k] * gen.U23[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    for p in table.f:
        via_product = gen.act_on_function(u12u23, p)
        stepwise = gen.act_on_function(gen.U12, gen.act_on_function(gen.U23, p))
        assert via_product == stepwise


def group_element_determinant(g):
    """Determinant of a scalar 3x3 group element."""
    m = [[Fraction(e) for e in row] for row in g]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_transvections_have_determinant_one():
    for g in gen.ELEMENTARY_TRANSVECTIONS.values():
        assert group_element_determinant(g) == 1


# -- classical cubic invariants ------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_invariants():
    return gen.cubic_invariants_from_f_forms(*relations.derive_st())


def test_cubic_invariants_degrees(cubic_invariants):
    s_cubic, t_cubic = cubic_invariants
    assert s_cubic.total_degree() == 4
    assert {sum(e) for e, _ in s_cubic.sorted_terms()} == {4}
    assert t_cubic.total_degree() == 6
    assert {sum(e) for e, _ in t_cubic.sorted_terms()} == {6}


def test_cubic_invariants_on_weierstrass_pencil(cubic_invariants):
    """The pencil cubic t3^3 + t2^2 t1 - b^2 t1^2 t3 - a^2 t1^3 has
    coefficients a=-a^2, a3=-b^2/3, b1=1/3, c=1 in the dictionary; the
    invariants then take the pinned values -b^2/27 and -4a^2/27."""
    s_cubic, t_cubic = cubic_invariants
    wv = gen.WEIERSTRASS_VARS
    a = Polynomial.variable(QQ, wv, "a")
    b = Polynomial.variable(QQ, wv, "b")
    zero = Polynomial.zero(QQ, wv)
    point = {
        "a": -a.mul(a),
        "a2": zero,
        "a3": b.mul(b) * Fraction(-1, 3),
        "b": zero,
        "b1": Polynomial.constant(QQ, wv, Fraction(1, 3)),
        "b3": zero,
        "c": Polynomial.constant(QQ, wv, 1),
        "c1": zero,
        "c2": zero,
        "m": zero,
    }
    assert s_cubic.substitute(point) == b.mul(b) * Fraction(-1, 27)
    assert t_cubic.substitute(point) == a.mul(a) * Fraction(-4, 27)


def cubic_action_substitution(g):
    """The unipotent action transported to the cubic-coefficient variables."""
    mat = oracles.f_action_matrix(g)
    idx = {name: n for n, name in enumerate(gen.F_NAMES)}
    out = {}
    for fname, (cname, scale) in gen._CUBIC_OF_F.items():
        acc = Polynomial.zero(QQ, gen.CUBIC_VARS)
        for gname, (dname, dscale) in gen._CUBIC_OF_F.items():
            coeff = mat[idx[fname]][idx[gname]] * Fraction(dscale, scale)
            if coeff:
                acc = acc + Polynomial.variable(QQ, gen.CUBIC_VARS, dname) * coeff
        out[cname] = acc
    return out


def test_cubic_invariants_fixed_by_unipotent_actions(cubic_invariants):
    s_cubic, t_cubic = cubic_invariants
    for g in (gen.U12, gen.U23):
        subst = cubic_action_substitution(g)
        assert s_cubic.substitute(subst) == s_cubic
        assert t_cubic.substitute(subst) == t_cubic


def test_cubic_table_roundtrip(cubic_invariants):
    """Substituting the dictionary forward again recovers the f-forms."""
    s_cubic, t_cubic = cubic_invariants
    s4, t6 = relations.derive_st()
    forward = {
        cname: Polynomial.variable(QQ, oracles.F_VARS, fname) * Fraction(1, scale)
        for fname, (cname, scale) in gen._CUBIC_OF_F.items()
    }
    assert s_cubic.substitute(forward) == s4
    assert t_cubic.substitute(forward) == t6
