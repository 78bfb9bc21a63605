import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semiinv.matrix import PolyMatrix
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableSet

import oracles

VS4 = VariableSet(("x", "y", "z", "w"))


def test_det_2x2():
    m = PolyMatrix.from_names(ZZ, VS4, [["x", "y"], ["z", "w"]])
    x, y, z, w = (Polynomial.variable(ZZ, VS4, n) for n in "xyzw")
    assert m.determinant() == x * w - y * z


def test_det_generic_3x3_leibniz_signs():
    names = [[f"m{i}{j}" for j in range(3)] for i in range(3)]
    vs = VariableSet([n for row in names for n in row])
    m = PolyMatrix.from_names(ZZ, vs, names)
    det = m.determinant()
    assert len(det) == 6
    coeffs = sorted(c for _, c in det.sorted_terms())
    assert coeffs == [-1, -1, -1, 1, 1, 1]
    assert det == oracles.leibniz_determinant_package(m)


def test_det_block_swap_is_minus_one():
    vs = VariableSet(("u",))
    ident = PolyMatrix.identity(ZZ, vs, 3)
    m = oracles.block_matrix([[None, ident], [ident, None]])
    assert m.determinant() == Polynomial.constant(ZZ, vs, -1)


def _random_matrix(rng, n, vs):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                mono = tuple(rng.randint(0, 2) for _ in range(len(vs)))
                terms[mono] = terms.get(mono, 0) + rng.randint(-5, 5)
            row.append(Polynomial.from_terms(ZZ, vs, terms))
        rows.append(row)
    return PolyMatrix(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_agrees_with_leibniz(n):
    rng = random.Random(100 + n)
    for _ in range(8):
        m = _random_matrix(rng, n, VS4)
        want = oracles.leibniz_determinant_package(m)
        got = m.determinant()
        if want is None or want.is_zero():
            assert got.is_zero()
        else:
            assert got == want


VS3 = VariableSet(("x", "y", "z"))


@st.composite
def sparse_matrices(draw):
    """A square matrix, n <= 6, over ZZ or QQ (denominators 2, 3 and 12):
    about a third of its entries 0, the others of one to three terms, and
    sometimes a zero row or a zero column."""
    n = draw(st.integers(1, 6))
    ring = draw(st.sampled_from((ZZ, QQ)))
    ints = st.integers(-5, 5)
    coeffs = ints if ring == ZZ else st.builds(Fraction, ints, st.sampled_from((1, 2, 3, 12)))
    entry = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coeffs, min_size=1, max_size=3)
    rows = [[draw(st.just({}) | entry | entry) for _ in range(n)] for _ in range(n)]
    zero_row, zero_col = draw(st.none() | st.integers(0, n - 1)), draw(st.none() | st.integers(0, n - 1))
    return PolyMatrix([
        [Polynomial.from_terms(ring, VS3, {} if zero_row == i or zero_col == j else t)
         for j, t in enumerate(row)]
        for i, row in enumerate(rows)
    ])


@settings(max_examples=80)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_det_of_sparse_matrices_agrees_with_the_oracles(m, rnd):
    """The subset DP against first-row expansion (and the Leibniz sum for
    n <= 4), over ZZ and QQ; its exponent bound holds its exponents, and a
    permutation whose entries multiply past 255 in one variable raises."""
    det = m.determinant()
    assert det == oracles.rowexp_determinant_package(m)
    if m.n <= 4:
        assert det == oracles.leibniz_determinant_package(m)
    assert int(det.exponents().max(initial=0)) <= det.maxexp
    if m.n >= 2:
        sigma = rnd.sample(range(m.n), m.n)
        rows = [list(r) for r in m.rows]
        for i, j in enumerate(sigma):
            e = {0: 200, 1: 100}.get(i, 0)
            rows[i][j] = Polynomial.monomial(m.ring, VS3, {"x": e})
        with pytest.raises(PolyError):
            PolyMatrix(rows).determinant()


def swap_rows(m, i, j):
    rows = list(m.rows)
    rows[i], rows[j] = rows[j], rows[i]
    return PolyMatrix(rows)


def test_det_alternating_rows_5x5():
    rng = random.Random(55)
    for _ in range(6):
        m = _random_matrix(rng, 5, VS4)
        det = m.determinant()
        i, j = rng.sample(range(5), 2)
        swapped = swap_rows(m, i, j)
        assert swapped.determinant() == -det


def test_det_dimension_bound():
    vs = VariableSet(("u",))
    m = PolyMatrix.identity(ZZ, vs, 10)
    with pytest.raises(PolyError):
        m.determinant()


def test_det_refuses_a_product_past_the_exponent_bound():
    """x^200 * x^100 would carry out of x's 8-bit field into a's and read as
    a*x^44; the determinant raises PolyError, as mul does."""
    vs = VariableSet(("a", "x"))
    x = Polynomial.variable(ZZ, vs, "x")
    zero = Polynomial.zero(ZZ, vs)
    with pytest.raises(PolyError):
        PolyMatrix([[x ** 200, zero], [zero, x ** 100]]).determinant()
    assert PolyMatrix([[x ** 200, zero], [zero, x ** 55]]).determinant() == x ** 255


def test_non_square_rejected():
    vs = VariableSet(("u",))
    one = Polynomial.constant(ZZ, vs, 1)
    with pytest.raises(PolyError):
        PolyMatrix([[one, one], [one]])


def test_matrix_product_and_trace():
    m = PolyMatrix.from_names(ZZ, VS4, [["x", "y"], ["z", "w"]])
    x, y, z, w = (Polynomial.variable(ZZ, VS4, n) for n in "xyzw")
    sq = m * m
    assert sq[0, 0] == x * x + y * z
    assert sq.trace() == x * x + 2 * y * z + w * w
