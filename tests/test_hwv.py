import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiinv import conjinv, generators as gen, hwv, relations, suites
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableMismatch, VariableSet
from semiinv.verify import RunConfig

import oracles


@pytest.fixture(scope="module")
def table():
    return gen.generator_table()


def _wrong_h(table):
    """H with its first correction coefficient changed from -1/3 to -1/2."""
    wrong = list(gen.H_CORRECTIONS)
    wrong[0] = (Fraction(-1, 2), wrong[0][1])
    f_map = {n + 1: table.f[n] for n in range(10)}
    return gen.combine_h_correction(table.h, f_map, tuple(wrong))


def test_weight_vector_examples(table):
    assert hwv.multidegree(table.f_by_ijk[(2, 1, 0)]) == (2, 1, 0)
    assert hwv.multidegree(table.H) == (2, 2, 2)
    assert hwv.multidegree(table.f_by_ijk[(2, 1, 0)]) != (1, 1, 1)
    assert hwv.multidegree(table.f[0] + table.f[6]) is None
    assert hwv.multidegree(Polynomial.zero(table.H.ring, table.H.vars)) is None


def diagonal_action_weight(F: Polynomial) -> tuple | None:
    """Weight read off from the symbolic diagonal substitution, an
    independent cross-check of the multidegree route: the substituted
    polynomial must equal z1^a1 z2^a2 z3^a3 times the original."""
    zvars = gen.TRIPLE_VARS.extend(("z1", "z2", "z3"))
    ring = F.ring
    zero = Polynomial.zero(ring, zvars)
    diag = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        diag[i][i] = Polynomial.variable(ring, zvars, f"z{i+1}")
    acted = gen.act_on_function(diag, F.convert(zvars))
    alphas = acted.degrees({"z1": (1, 0, 0), "z2": (0, 1, 0), "z3": (0, 0, 1)})
    if len(alphas) != 1:
        return None
    alpha = alphas.pop()
    scale = Polynomial.monomial(
        ring, zvars, {"z1": alpha[0], "z2": alpha[1], "z3": alpha[2]}
    )
    if acted == scale.mul(F.convert(zvars)):
        return alpha
    return None


def test_weight_routes_agree_for_every_generator(table):
    polys = list(table.f) + [table.h, table.q, table.H, table.Q]
    for p in polys:
        assert diagonal_action_weight(p) == hwv.multidegree(p)


def test_fixed_by_unipotents(table):
    assert hwv.is_fixed_by_unipotents(table.H)
    assert hwv.is_fixed_by_unipotents(table.Q)
    assert not hwv.is_fixed_by_unipotents(table.h)
    # the difference u12.h - h is a genuinely nonzero polynomial
    assert gen.act_on_function(gen.U12, table.h) - table.h


def test_solve_h_correction():
    beta = hwv.solve_h_correction()
    assert beta == [
        Fraction(-1, 3),
        Fraction(-1, 3),
        Fraction(2, 3),
        Fraction(1, 12),
    ]


def test_solve_q_correction():
    beta = hwv.solve_q_correction()
    assert beta == [
        Fraction(-1, 2),
        Fraction(3, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    ]


def test_solved_corrections_match_pinned_tables():
    assert [c for c, _ in gen.H_CORRECTIONS] == hwv.solve_h_correction()
    assert [c for c, _ in gen.Q_CORRECTIONS] == hwv.solve_q_correction()


def test_unfixed_base_with_empty_basis_is_inconsistent(table):
    with pytest.raises(hwv.InconsistentSystem):
        hwv.solve_hwv_correction(table.h, [])
    with pytest.raises(hwv.InconsistentSystem):
        hwv.solve_hwv_correction(table.f_by_ijk[(0, 0, 3)], [])


def test_fixed_base_with_empty_basis_solves_trivially(table):
    # det(A1) is untouched by the upper transvections, so it is already a
    # highest weight vector and the empty correction works
    assert hwv.solve_hwv_correction(table.f_by_ijk[(3, 0, 0)], []) == []


def test_duplicate_basis_is_underdetermined(table):
    basis = hwv.h_correction_basis(table)
    basis = basis[:1] + basis
    with pytest.raises(hwv.UnderdeterminedSystem):
        hwv.solve_hwv_correction(table.h, basis)


def test_h_solution_space_is_zero_dimensional(table):
    """Uniqueness: dropping any one basis element leaves no solution, so the
    four coefficients are forced."""
    basis = hwv.h_correction_basis(table)
    for skip in range(4):
        reduced = [b for i, b in enumerate(basis) if i != skip]
        with pytest.raises(hwv.InconsistentSystem):
            hwv.solve_hwv_correction(table.h, reduced)


def test_mixed_multidegree_basis_rejected(table):
    with pytest.raises(hwv.linalg.LinAlgError):
        hwv.solve_hwv_correction(table.h, [table.q])


def test_sl3_certificates(table):
    assert hwv.sl3_invariance_certificate(table.H)
    assert hwv.sl3_invariance_certificate(table.Q)
    assert not hwv.sl3_invariance_certificate(table.f_by_ijk[(1, 1, 1)].to_ring(QQ))
    assert not hwv.sl3_invariance_certificate(table.h.to_ring(QQ))


def test_sl3_certificates_for_derived_invariants():
    s4, t6 = relations.derive_st()
    assert hwv.sl3_certificate_for_f_polynomial(s4)
    assert hwv.sl3_certificate_for_f_polynomial(t6)
    # a polynomial that is not invariant fails the certificate
    from semiinv.poly import Polynomial

    f1 = Polynomial.variable(QQ, gen.F_VARS, "f1")
    assert not hwv.sl3_certificate_for_f_polynomial(f1)


def test_wrong_correction_coefficient_is_detected(table):
    """Negative control: a single wrong coefficient breaks fixedness."""
    assert not hwv.is_fixed_by_unipotents(_wrong_h(table))


# -- the derivation certificates against group substitution ---------------------

TRANSVECTIONS = {(1, 2): gen.U12, (2, 3): gen.U23, (2, 1): gen.U21, (3, 2): gen.U32}


def _integral(F):
    """F scaled to integer coefficients; fixedness is unchanged and the group
    substitution runs without Fractions."""
    if F.ring == ZZ:
        return F
    den = lcm(*(c.denominator for c in F.terms.values()))
    return Polynomial(ZZ, F.vars, {k: (c * den).numerator for k, c in F.terms.items()})


@pytest.fixture(scope="module")
def oracle_cases(table):
    cases = {f"f{n}": table.f[n - 1] for n in range(1, 11)}
    cases.update(h=table.h, q=table.q, H=table.H, Q=table.Q, H_wrong=_wrong_h(table))
    return cases


@pytest.mark.parametrize("root", sorted(TRANSVECTIONS), ids=lambda r: f"E{r[0]}{r[1]}")
def test_derivation_verdict_matches_group_substitution(oracle_cases, root):
    """D_ij F = 0 exactly when I + E_ij fixes F, on every generator, on H and
    Q and on a wrong-coefficient H."""
    g = TRANSVECTIONS[root]
    verdicts = set()
    for name, F in oracle_cases.items():
        killed = oracles.polarize(F, hwv.block_derivation(*root)).is_zero()
        G = _integral(F)
        assert killed == (gen.act_on_function(g, G) == G), name
        verdicts.add(killed)
    assert verdicts == {True, False}


def test_certificates_never_use_group_substitution(table, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("group substitution reached")

    monkeypatch.setattr(gen, "act_on_function", forbidden)
    assert hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table)) == [
        c for c, _ in gen.H_CORRECTIONS
    ]
    assert hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table)) == [
        c for c, _ in gen.Q_CORRECTIONS
    ]
    assert hwv.is_fixed_by_unipotents(table.H)
    assert not hwv.is_fixed_by_unipotents(table.h)
    assert hwv.sl3_invariance_certificate(table.Q)
    assert not hwv.sl3_invariance_certificate(table.q)


def test_generators_are_sl3_x_sl3_invariant(table):
    for F in table.f + (table.h, table.q, table.H, table.Q):
        assert hwv.sl3_sl3_invariance_certificate(F)


def test_sl3_x_sl3_negative_control(table):
    bump = Polynomial.monomial(
        ZZ, gen.TRIPLE_VARS, {"x1_11": 3, "x2_22": 3, "x3_33": 3}
    )
    assert hwv.multidegree(table.q + bump) == (3, 3, 3)
    assert not hwv.sl3_sl3_invariance_certificate(table.q + bump)


def _bumped(F):
    """F plus a diagonal monomial of its block multidegree: still a weight
    vector, no longer SL3 x SL3-invariant."""
    i, j, k = hwv.multidegree(F)
    return F + Polynomial.monomial(ZZ, gen.TRIPLE_VARS, {"x1_11": i, "x2_22": j, "x3_33": k})


def test_stacked_sl3_x_sl3_certificate_fails_on_any_one_bad_member(table):
    stack = [*table.f, table.h, table.q]
    assert hwv.sl3_sl3_invariance_certificate(*stack)
    for n in range(len(stack)):
        bad = [_bumped(F) if m == n else F for m, F in enumerate(stack)]
        assert not hwv.sl3_sl3_invariance_certificate(*bad), n


def test_hwv_suite_certifies_the_twelve_in_one_kernel_call(table, monkeypatch):
    """The SL3 x SL3 check is one derivation kernel call (derivation_stream,
    behind derivation_images too) over the stack of f1..f10, h, q, and it
    FAILs when one member of the stack is not invariant; no other check of
    the suite changes its verdict."""
    name = "f1..f10, h and q are SL3 x SL3-invariant (row and column derivations)"
    assert all(r.passed for r in suites.hwv_suite(RunConfig()))  # warms the caches
    calls = []
    kernel = hwv.derivation_stream

    def counting(polys, derivations):
        calls.append(len(polys))
        return kernel(polys, derivations)

    monkeypatch.setattr(hwv, "derivation_stream", counting)
    (check,) = [r for r in suites.hwv_suite(RunConfig()) if r.name == name]
    assert check.passed and 12 in calls and calls.count(12) == 1
    bumped = replace(table, q=_bumped(table.q))
    vars(bumped).update(H=table.H, Q=table.Q)  # the cached H and Q of the table, kept
    monkeypatch.setattr(gen, "generator_table", lambda: bumped)
    verdicts = {r.name: r.passed for r in suites.hwv_suite(RunConfig())}
    assert verdicts.pop(name) is False
    assert all(verdicts.values())


def test_left_and_right_derivations_match_matrix_multiplication(table):
    """Row and column derivations are the t-derivatives of g A_r and A_r g for
    g = I + t*E_ij, checked against the group substitution on det(A1)*f111."""
    F = table.f[0].mul(table.f[4])
    for (i, j), g in TRANSVECTIONS.items():
        left, right = {}, {}
        for r in (1, 2, 3):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    # (g A)_ab = sum_c g_ac A_cb and (A g)_ab = sum_c A_ac g_cb
                    left[f"x{r}_{a}{b}"] = sum(
                        Polynomial.variable(ZZ, gen.TRIPLE_VARS, f"x{r}_{c}{b}") * g[a - 1][c - 1]
                        for c in (1, 2, 3)
                    )
                    right[f"x{r}_{a}{b}"] = sum(
                        Polynomial.variable(ZZ, gen.TRIPLE_VARS, f"x{r}_{a}{c}") * g[c - 1][b - 1]
                        for c in (1, 2, 3)
                    )
        # det(g) = 1, so both actions fix F and both derivations kill it
        assert F.substitute(left) == F and F.substitute(right) == F
        assert oracles.polarize(F, hwv.row_derivation(i, j)).is_zero()
        assert oracles.polarize(F, hwv.column_derivation(i, j)).is_zero()
        # on each coordinate the derivation is the t-linear part of the action
        for x in gen.TRIPLE_NAMES:
            var = Polynomial.variable(ZZ, gen.TRIPLE_VARS, x)
            assert oracles.polarize(var, hwv.row_derivation(i, j)) == left[x] - var
            assert oracles.polarize(var, hwv.column_derivation(i, j)) == right[x] - var


def test_row_normalization_integer_and_rational_paths_agree():
    norm = hwv.linalg._normalize_row
    assert norm((2, -4), 6) == (1, -2, 3)
    assert norm((-2, 4), -6) == (1, -2, 3)
    assert norm((Fraction(1, 2), -1), Fraction(3, 2)) == (1, -2, 3)
    assert norm((0, -3), 0) == (0, 1, 0)
    assert norm((0, 0), 0) is None


# -- the derivation kernel against oracles.polarize ------------------------------

KV = VariableSet(("x", "y", "z"))
KV_PAIRS = st.lists(st.tuples(st.sampled_from(KV.names), st.sampled_from(KV.names)), max_size=4)


@st.composite
def kernel_polys(draw):
    """ZZ or QQ polynomials in x, y, z, with coefficients and denominators
    both small and far beyond 2**63."""
    ints = st.one_of(st.integers(-20, 20), st.integers(-(2**70), 2**70))
    ring = draw(st.sampled_from((ZZ, QQ)))
    if ring == QQ:
        ints = st.builds(Fraction, ints, st.one_of(st.integers(1, 12), st.integers(1, 2**66)))
    monomials = st.tuples(*[st.integers(0, 4)] * 3)
    return Polynomial.from_terms(ring, KV, draw(st.dictionaries(monomials, ints, max_size=5)))


def _oracle_rows(polys, plus, minus):
    """The images from oracles.polarize laid out as the kernel lays them out:
    a row per monomial of some image, in increasing lexicographic order, a
    column per polynomial, scaled by the common denominator of the stack."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    images = [
        dict((oracles.polarize(p, plus) - oracles.polarize(p, minus)).sorted_terms()) for p in polys
    ]
    return [[image.get(m, 0) * den for image in images] for m in sorted(set().union(*images))]


def _nonzero_rows(matrix):
    """The kernel's rows without those where every image cancels."""
    return [row for row in matrix.tolist() if any(row)]


@given(
    st.lists(kernel_polys(), min_size=1, max_size=3),
    st.lists(st.tuples(KV_PAIRS, KV_PAIRS), max_size=3),
)
@settings(max_examples=300)
def test_kernel_matches_the_polarize_oracle(polys, derivations):
    """Mixed ZZ/QQ stacks, src == dst pairs, empty pair lists, the zero
    polynomial and coefficients past int64 all give the oracle's images."""
    images = hwv.derivation_images(polys, derivations)
    assert len(images) == len(derivations)
    for (plus, minus), image in zip(derivations, images):
        assert image.shape[1] == len(polys)
        assert _nonzero_rows(image) == _oracle_rows(polys, plus, minus)


def test_kernel_edge_cases_match_the_oracle():
    x, y, z = (Polynomial.variable(ZZ, KV, n) for n in KV.names)
    F = x.mul(x).mul(y) * 3 + z
    zero = Polynomial.zero(ZZ, KV)
    for polys, plus in [
        ([F], [("x", "x")]),  # the Euler operator x*d/dx
        ([F], []),
        ([zero], [("y", "x")]),
        ([zero, F], [("z", "x"), ("x", "y")]),
    ]:
        (image,) = hwv.derivation_images(polys, [(plus, ())])
        assert _nonzero_rows(image) == _oracle_rows(polys, plus, ())
    (image,) = hwv.derivation_images([zero, zero], [((), ())])
    assert image.shape == (0, 2)
    assert hwv.derivation_images([F], []) == []


def test_kernel_exponent_bound_and_unknown_names():
    at_254 = Polynomial.monomial(ZZ, KV, {"x": 254, "y": 1}, 5)
    (image,) = hwv.derivation_images([at_254], [([("x", "y"), ("y", "x")], ())])
    assert _nonzero_rows(image) == _oracle_rows([at_254], [("x", "y"), ("y", "x")], ())
    at_255 = Polynomial.monomial(ZZ, KV, {"x": 255})
    with pytest.raises(PolyError):
        hwv.derivation_images([at_255], [([("y", "x")], ())])
    with pytest.raises(PolyError):
        oracles.polarize(at_255, [("y", "x")])
    for pairs in ([("w", "x")], [("x", "w")]):
        with pytest.raises(VariableMismatch):
            hwv.derivation_images([at_254], [(pairs, ())])
        with pytest.raises(VariableMismatch):
            oracles.polarize(at_254, pairs)


@pytest.mark.parametrize("c, dtype", [(2**62 - 1, np.int64), (2**62, object)])
def test_kernel_leaves_int64_when_a_sum_could_overflow(c, dtype):
    """y*d/dx + y*d/dz maps c*x + c*z to 2*c*y; the bound 2 pairs * exponent
    1 * |c| decides the dtype, and 2**63 is exact in Python ints."""
    F = Polynomial.from_terms(ZZ, KV, {(1, 0, 0): c, (0, 0, 1): c})
    (image,) = hwv.derivation_images([F], [([("y", "x"), ("y", "z")], ())])
    assert image.dtype == dtype and image.tolist() == [[2 * c]]


def test_kernel_keys_span_several_words():
    """Ten columns with exponents up to 254 need a radix product of about
    255**10 > 2**63, so the keys take more than one int64 word."""
    names = [f"v{i}" for i in range(10)]
    vs = VariableSet(names)
    rng = random.Random(15)
    terms = {tuple(rng.choice((0, 1, 253, 254)) for _ in names): rng.randint(-9, 9) for _ in range(40)}
    F = Polynomial.from_terms(ZZ, vs, terms)
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(12)]
    (image,) = hwv.derivation_images([F, F * 2], [(pairs, pairs[:3])])
    assert _nonzero_rows(image) == _oracle_rows([F, F * 2], pairs, pairs[:3])


def test_certificate_verdicts_match_the_oracle(oracle_cases):
    """Each certificate says True exactly when oracles.polarize kills F under
    all of its derivations."""

    def killed(F, derivations):
        return all(oracles.polarize(F, d).is_zero() for d in derivations)

    upper = [hwv.block_derivation(i, j) for i, j in hwv.UPPER_ROOTS]
    sl3 = [hwv.block_derivation(i, j) for i, j in hwv.SL3_ROOTS]
    sides = [hwv.row_derivation(i, j) for i, j in hwv.SL3_ROOTS]
    sides += [hwv.column_derivation(i, j) for i, j in hwv.SL3_ROOTS]
    verdicts = set()
    for name, F in oracle_cases.items():
        assert hwv.is_fixed_by_unipotents(F) == killed(F, upper), name
        assert hwv.sl3_invariance_certificate(F) == killed(F, sl3), name
        assert hwv.sl3_sl3_invariance_certificate(F) == killed(F, sides), name
        verdicts.add(killed(F, upper))
    assert verdicts == {True, False}


def test_conjugation_verdicts_match_the_oracle():
    gens = conjinv.trace_generators()
    x12 = Polynomial.variable(ZZ, conjinv.PAIR_VARS, "x1_12")
    cases = [*gens.values(), x12.mul(x12), gens["k"] + x12]
    verdicts = set()
    for F in cases:
        want = all(
            oracles.polarize(F, hwv.row_derivation(i, j, (1, 2)))
            == oracles.polarize(F, hwv.column_derivation(i, j, (1, 2)))
            for i, j in hwv.SL3_ROOTS
        )
        assert hwv.conjugation_invariance_certificate(F) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_rescaled_qq_basis_rescales_the_solution(table):
    """One common denominator for the base and the whole basis: with the
    first three products scaled by 1/3 and the last by 1/12 over QQ, the
    pinned (-1/3, -1/3, 2/3, 1/12) comes back times 3 and 12."""
    scales = (Fraction(1, 3),) * 3 + (Fraction(1, 12),)
    basis = [reduce(mul, b).to_ring(QQ) * s for b, s in zip(hwv.h_correction_basis(table), scales)]
    assert hwv.solve_hwv_correction(table.h, basis) == [-1, -1, 2, 1]


def test_q_correction_hands_solve_unique_its_distinct_rows(monkeypatch, table):
    """Guard: the q solve passes fewer than 100 rows to the elimination: the
    25 distinct rows of the images of its two 15-variable slices."""
    sizes = []
    real = hwv.linalg.solve_unique

    def recording(rows, nunknowns):
        rows = list(rows)
        sizes.append(len(rows))
        return real(rows, nunknowns)

    monkeypatch.setattr(hwv.linalg, "solve_unique", recording)
    assert hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table)) == [
        c for c, _ in gen.Q_CORRECTIONS
    ]
    assert sizes and max(sizes) < 100


def test_the_solve_stacks_polynomials_only_on_the_slices(monkeypatch, table):
    """Guard: the derivation kernel (derivation_stream, behind
    derivation_images too) receives a stack of more than one polynomial only
    in the 15 slice coordinates (one stack per slice); the check in all 27
    coordinates takes the one corrected polynomial."""
    calls = []
    real = hwv.derivation_stream

    def recording(polys, derivations):
        calls.append((len(polys), len(polys[0].vars)))
        return real(polys, derivations)

    monkeypatch.setattr(hwv, "derivation_stream", recording)
    hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table))
    hwv.solve_hwv_correction(table.q, hwv.q_correction_basis(table))
    assert all(n == 1 or width == 15 for n, width in calls)
    assert calls.count((5, 15)) == calls.count((9, 15)) == 2


def test_a_term_invisible_on_both_slices_fails_the_exact_check(monkeypatch, table):
    """Negative control: x1_12*x3_12*x1_11^2*x2_11^3*x3_11^2 is 0 on both
    slices (x1_12 = 0 on each), so with it added to the first q product the
    slice equations still give the pinned coefficients; D12 does not kill it,
    and only the check in all 27 coordinates sees that."""
    basis = hwv.q_correction_basis(table)
    basis[0] = reduce(mul, basis[0]) + Polynomial.monomial(
        ZZ, gen.TRIPLE_VARS, {"x1_12": 1, "x3_12": 1, "x1_11": 2, "x2_11": 3, "x3_11": 2}
    )
    solved = []
    real = hwv.linalg.solve_unique

    def recording(rows, nunknowns):
        solved.append(real(rows, nunknowns))
        return solved[-1]

    monkeypatch.setattr(hwv.linalg, "solve_unique", recording)
    with pytest.raises(hwv.InconsistentSystem):
        hwv.solve_hwv_correction(table.q, basis)
    assert solved == [[c for c, _ in gen.Q_CORRECTIONS]]


def test_the_q_solve_multiplies_out_no_product_of_three_factors(table, monkeypatch):
    """Guard: a cold q solve builds, in the 27 coordinates, no polynomial of
    multidegree (3,3,3) but its one corrected sum 2*Q (9216 terms): no
    product of three factors, nor h*f5, is multiplied out, and the slices
    restrict the factors, not the products.  Every product goes through
    Polynomial.sum_of_products."""
    built = []
    real = Polynomial.sum_of_products

    def recording(ring, vars, triples):
        out = real(ring, vars, triples)
        if vars == gen.TRIPLE_VARS and hwv.multidegree(out) == (3, 3, 3):
            built.append(len(out))
        return out

    monkeypatch.setattr(Polynomial, "sum_of_products", staticmethod(recording))
    hwv.solve_q_correction.cache_clear()
    assert hwv.solve_q_correction() == [c for c, _ in gen.Q_CORRECTIONS]
    assert built == [9216]


def test_factor_form_and_multiplied_out_bases_solve_alike(table):
    """A basis element is a product given by its factors; the same products
    multiplied out, each passed as a lone Polynomial, give the same beta."""
    for base, basis in (
        (table.h, hwv.h_correction_basis(table)),
        (table.q, hwv.q_correction_basis(table)),
    ):
        assert all(isinstance(b, tuple) and len(b) > 1 for b in basis)
        full = [reduce(mul, b) for b in basis]
        assert hwv.solve_hwv_correction(base, full) == hwv.solve_hwv_correction(base, basis)


def test_a_bad_input_is_named_with_its_case(table):
    """The solve names the element it refuses (its index in the basis) and
    says whether it is zero, not multihomogeneous or of another multidegree
    than the base; a correction that cancels the base is refused too."""
    f = table.f
    zero = Polynomial.zero(ZZ, gen.TRIPLE_VARS)
    good = (f[1], f[8])
    for base, basis, message in [
        (zero, [], "base is zero"),
        (f[0] + f[6], [], "base is not multihomogeneous"),
        (table.h, [good, (f[2], zero)], "basis element 1 is zero"),
        (table.h, [good, (f[0] + f[6], f[8])], "basis element 1 is not multihomogeneous"),
        (table.h, [table.q], "basis element 0 has multidegree (3, 3, 3), not the base's (2, 2, 2)"),
        (table.h, [table.h], "the corrected polynomial is not of the base's multidegree (2, 2, 2)"),
    ]:
        with pytest.raises(hwv.linalg.LinAlgError) as exc:
            hwv.solve_hwv_correction(base, basis)
        assert str(exc.value) == message


def test_the_solve_checks_all_four_roots_only_at_a_balanced_weight(table, monkeypatch):
    """At a multidegree (k,k,k) the 27-coordinate check is the SL3
    certificate, D12, D23, D21 and D32 in one kernel call on the corrected
    polynomial; det(A1), of multidegree (3,0,0), is checked by D12 and D23
    alone, since D21 does not kill it."""
    calls = []
    real = hwv.derivation_stream

    def recording(polys, derivations):
        if len(polys[0].vars) == 27:
            calls.append([plus for plus, _ in derivations])
        return real(polys, derivations)

    monkeypatch.setattr(hwv, "derivation_stream", recording)
    hwv.solve_hwv_correction(table.h, hwv.h_correction_basis(table))
    hwv.solve_hwv_correction(table.f_by_ijk[(3, 0, 0)], [])
    sl3 = [hwv.block_derivation(i, j) for i, j in hwv.SL3_ROOTS]
    upper = [hwv.block_derivation(i, j) for i, j in hwv.UPPER_ROOTS]
    assert calls == [sl3, upper]
    assert not hwv.sl3_invariance_certificate(table.f_by_ijk[(3, 0, 0)])


def test_a_certificate_stops_at_the_first_nonzero_image(table, monkeypatch):
    """_killed_by streams the images of its derivations: on h, which D12
    does not kill, the SL3 certificate forms the first of its four images
    and no later one.  A stack that every derivation kills forms them all,
    and derivation_images still returns every image as a list."""
    formed = []
    real = hwv.derivation_stream

    def counting(polys, derivations):
        for image in real(polys, derivations):
            formed.append(bool(image.any()))
            yield image

    monkeypatch.setattr(hwv, "derivation_stream", counting)
    assert not hwv.sl3_invariance_certificate(table.h)
    assert formed == [True]
    formed.clear()
    assert hwv.sl3_sl3_invariance_certificate(table.h)
    assert formed == [False] * 8
    formed.clear()
    derivations = [(hwv.block_derivation(i, j), ()) for i, j in hwv.SL3_ROOTS]
    images = hwv.derivation_images([table.h], derivations)
    assert isinstance(images, list) and len(images) == 4 and formed == [True] * 4


@given(
    gammas=st.lists(
        st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 12])),
        min_size=4,
        max_size=4,
    ),
    qq=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_a_shifted_base_shifts_the_h_correction(table, gammas, qq):
    """solve_hwv_correction(h + sum(gamma_i * b_i), the H basis) is the pinned
    beta - gamma, for gamma with denominators 1, 2, 3 and 12; the inputs are
    over ZZ when gamma is integral and qq is False, over QQ otherwise."""
    ring = QQ if qq or any(g.denominator != 1 for g in gammas) else ZZ
    basis = [reduce(mul, b).to_ring(ring) for b in hwv.h_correction_basis(table)]
    base = table.h.to_ring(ring)
    for g, b in zip(gammas, basis):
        base = base + b * g
    pinned = [c for c, _ in gen.H_CORRECTIONS]
    assert hwv.solve_hwv_correction(base, basis) == [c - g for c, g in zip(pinned, gammas)]


def test_the_package_has_one_derivation_path():
    """Guard: polarize lives only in tests/oracles.py, so no check of the
    package, verify all included, can reach it; nor does the package weight
    a bincount."""
    assert not hasattr(Polynomial, "polarize")
    for path in Path(hwv.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "polarize" not in text and "bincount" not in text, path.name
