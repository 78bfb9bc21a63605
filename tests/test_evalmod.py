import itertools
import random
from fractions import Fraction

import pytest

import numpy as np

from semiinv import evalmod, generators as gen, relations as rel
from semiinv.evalmod import (
    DEFAULT_PRIMES,
    Composition,
    check_prime,
    poly_eval_mod,
    sample_point,
)
from semiinv.matrix import PolyMatrix
from semiinv.poly import QQ, ZZ, Polynomial, PolyError, VariableMismatch, VariableSet

import oracles

VS = VariableSet(("x", "y", "z"))


def test_example_x_squared_plus_one():
    x = Polynomial.variable(ZZ, VS, "x")
    assert poly_eval_mod(x ** 2 + 1, {"x": 2, "y": 0, "z": 0}, 5) == 0


def test_zero_polynomial():
    assert poly_eval_mod(Polynomial.zero(ZZ, VS), {"x": 1, "y": 2, "z": 3}, 7) == 0


def test_missing_binding():
    x = Polynomial.variable(ZZ, VS, "x")
    with pytest.raises(PolyError):
        poly_eval_mod(x, {"y": 1}, 7)


def test_prime_validation():
    check_prime(5)
    check_prime(7)
    check_prime(2147483647)
    with pytest.raises(PolyError):
        check_prime(9)
    with pytest.raises(PolyError):
        check_prime(2)
    with pytest.raises(PolyError):
        check_prime(3)
    check_prime(3, allow_small_char=True)
    with pytest.raises(PolyError):
        check_prime(2**31 + 11)


def test_default_primes_are_the_five_largest_below_2_31():
    assert DEFAULT_PRIMES == (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)
    for p in DEFAULT_PRIMES:
        check_prime(p)


def test_exact_vs_modular_500_cases():
    rng = random.Random(4100)
    prime = 2147483629
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 4) for _ in range(3))
            terms[mono] = terms.get(mono, 0) + rng.randint(-1000, 1000)
        p = Polynomial.from_terms(ZZ, VS, terms)
        point = {n: rng.randint(0, prime - 1) for n in VS.names}
        assert poly_eval_mod(p, point, prime) == p.evaluate(point) % prime
        assert poly_eval_mod(p, point, prime) == oracles.naive_eval_mod(p, point, prime)


def test_rational_coefficients_mod_p():
    x = Polynomial.variable(QQ, VS, "x")
    p = x * Fraction(1, 2)
    # 1/2 mod 7 is 4
    assert poly_eval_mod(p, {"x": 1, "y": 0, "z": 0}, 7) == 4
    bad = x * Fraction(1, 7)
    with pytest.raises(PolyError):
        poly_eval_mod(bad, {"x": 1, "y": 0, "z": 0}, 7)


def test_sample_point_determinism_and_range():
    names = tuple(f"v{i}" for i in range(40))
    a = sample_point(names, seed=0, prime=101, trial=3)
    b = sample_point(names, seed=0, prime=101, trial=3)
    assert a == b
    c = sample_point(names, seed=0, prime=101, trial=4)
    d = sample_point(names, seed=1, prime=101, trial=3)
    assert a != c and a != d
    assert all(0 <= v < 101 for v in a.values())


def test_composition_binds_one_leaf_to_two_names():
    x = Polynomial.variable(ZZ, VS, "x")
    leaf = x ** 2 + 1
    outer_vars = VariableSet(("u", "v"))
    u = Polynomial.variable(ZZ, outer_vars, "u")
    v = Polynomial.variable(ZZ, outer_vars, "v")
    expr = Composition(u * v - u - v, {"u": leaf, "v": leaf})
    # u*v - u - v at u = v = s evaluates to s^2 - 2s
    point = {"x": 3, "y": 0, "z": 0}
    s = 10
    assert expr.eval_mod(point, 97) == (s * s - 2 * s) % 97
    assert expr.degree_bound() == 4


def test_composition_expand_matches_eval():
    x = Polynomial.variable(ZZ, VS, "x")
    y = Polynomial.variable(ZZ, VS, "y")
    outer_vars = VariableSet(("u", "v"))
    u = Polynomial.variable(ZZ, outer_vars, "u")
    v = Polynomial.variable(ZZ, outer_vars, "v")
    expr = Composition(u ** 2 - v, {"u": x + y, "v": x ** 2 + 2 * x * y + y ** 2})
    assert expr.expand().is_zero()
    point = {"x": 3, "y": 4, "z": 5}
    assert expr.eval_mod(point, 97) == 0
    mutant = Composition(u ** 2 - v, {"u": x + y, "v": x ** 2 + y ** 2})
    assert mutant.expand() == 2 * x * y
    assert mutant.eval_mod(point, 97) == 24


def test_unbound_abstract_variable_rejected():
    outer_vars = VariableSet(("u", "v"))
    u = Polynomial.variable(ZZ, outer_vars, "u")
    x = Polynomial.variable(ZZ, VS, "x")
    with pytest.raises(PolyError, match="unbound abstract variable 'u'"):
        Composition(u, {})
    Composition(u, {"u": x})  # v unused, binding not required


def test_leaves_over_two_variable_sets_rejected():
    """Every leaf is evaluated at one point over one variable set; a leaf
    over another set is refused when the composition is built."""
    outer_vars = VariableSet(("u", "v"))
    u = Polynomial.variable(ZZ, outer_vars, "u")
    v = Polynomial.variable(ZZ, outer_vars, "v")
    x = Polynomial.variable(ZZ, VS, "x")
    w = Polynomial.variable(ZZ, VariableSet(("x", "w")), "w")
    with pytest.raises(VariableMismatch, match="different variable sets"):
        Composition(u * v, {"u": x, "v": w})
    assert Composition(u * v, {"u": x, "v": x ** 2}).vars == VS


def test_leaf_the_outer_polynomial_does_not_name_rejected():
    """A spare leaf is refused when the composition is built: modular
    evaluation would ignore it while exact expansion could not bind it, so
    the two modes would disagree on one identity."""
    a = Polynomial.variable(ZZ, VariableSet(("a",)), "a")
    x = Polynomial.variable(ZZ, VS, "x")
    y = Polynomial.variable(ZZ, VS, "y")
    with pytest.raises(VariableMismatch, match="leaf 'b'"):
        Composition(a - a, {"a": x, "b": y})
    assert Composition(a - a, {"a": x}).expand().is_zero()


def test_block_determinant_extract_vs_evaluate_10_points():
    """Extract-then-evaluate equals evaluate-then-extract for h and q, and
    both equal the exact integer path.  The reference is the paper's
    definitions, built here without the package's determinant table: h is
    the t1^2 t2^2 t3^2 coefficient of det([[t2*A2, t1*A1], [t1*A1, t3*A3]])
    and q the t1^2 t2 t3^2 t4 t5^2 t6 coefficient of
    det([[0, t1*A1, t2*A2], [t4*A1, 0, t3*A3], [t5*A2, t6*A3, 0]]), with the
    blocks holding the point's residues as integers and only the extracted
    coefficient reduced mod p."""
    prime = 2147483629
    table = gen.generator_table()
    tvars = VariableSet(("t1", "t2", "t3", "t4", "t5", "t6"))
    ring = ZZ
    for trial in range(10):
        point = sample_point(gen.TRIPLE_NAMES, seed=99, prime=prime, trial=trial)

        def fmat(r):
            return PolyMatrix.from_scalars(
                ring,
                tvars,
                [[point[f"x{r}_{i}{j}"] for j in (1, 2, 3)] for i in (1, 2, 3)],
            )

        def tscale(m, name):
            return m.scale(Polynomial.variable(ring, tvars, name))

        a1, a2, a3 = fmat(1), fmat(2), fmat(3)
        q_block = oracles.block_matrix(
            [
                [None, tscale(a1, "t1"), tscale(a2, "t2")],
                [tscale(a1, "t4"), None, tscale(a3, "t3")],
                [tscale(a2, "t5"), tscale(a3, "t6"), None],
            ]
        )
        q_coeff = q_block.determinant().coefficient(
            {"t1": 2, "t2": 1, "t3": 2, "t4": 1, "t5": 2, "t6": 1}
        )
        h_block = oracles.block_matrix(
            [
                [tscale(a2, "t2"), tscale(a1, "t1")],
                [tscale(a1, "t1"), tscale(a3, "t3")],
            ]
        )
        h_coeff = h_block.determinant().coefficient({"t1": 2, "t2": 2, "t3": 2})
        values = gen.generator_values_mod(point, prime)
        for name, coeff in (("h", h_coeff), ("q", q_coeff)):
            poly = getattr(table, name)
            # the stored 27-variable polynomial, mod p and over the integers
            assert poly_eval_mod(poly, point, prime) == coeff % prime
            assert poly.evaluate(point) % prime == coeff % prime
            # the determinant table mod p
            assert values[name] == coeff % prime


@pytest.mark.parametrize("prime", [2147483647, 5, 7])
def test_batch_evaluation_equals_per_point(prime):
    """One evaluation of a batch of points gives, trial by trial, the value
    of the per-point evaluation: for the leaves q and Q and for theorem 1's
    composition, whose outer polynomial has coefficients with denominator 4."""
    table = gen.generator_table()
    points = [sample_point(gen.TRIPLE_NAMES, 5, prime, t) for t in range(6)]
    batch = {
        n: np.array([pt[n] for pt in points], dtype=np.int64)
        for n in gen.TRIPLE_NAMES
    }
    theorem1 = rel.theorem1_expr()
    assert any(
        isinstance(c, Fraction) and c.denominator == 4
        for c in theorem1.outer.terms.values()
    )
    for evaluate in (
        lambda pt: poly_eval_mod(table.q, pt, prime),
        lambda pt: poly_eval_mod(table.Q, pt, prime),
        lambda pt: theorem1.eval_mod(pt, prime),
    ):
        values = evaluate(batch)
        assert values.shape == (len(points),)
        expected = [evaluate(pt) for pt in points]
        assert all(type(v) is int for v in expected)
        assert values.tolist() == expected


# -- determinants and generator values from their definitions -----------------


def _exact_det_mod(rows, prime):
    m = PolyMatrix.from_scalars(ZZ, VS, rows)
    return m.determinant().evaluate(dict.fromkeys(VS.names, 0)) % prime


def _det_mod_cases():
    rng = random.Random(12)
    cases = [
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero leading pivot
        [[5, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero leading pivot mod 5 only
        [[1, 2, 3], [2, 4, 7], [1, 1, 1]],  # a zero pivot after the first step
        [[1, 2], [3, 11]],  # det 5: singular mod 5, not over ZZ
        [[7, 0], [0, 5]],  # det 35: singular mod 5 and mod 7
        [[-3, 4, -1], [2, -8, 6], [0, -5, 7]],
        [[0]],
        [[-4]],
    ]
    for perm in itertools.permutations(range(3)):
        cases.append([[int(perm[i] == j) for j in range(3)] for i in range(3)])
    for n in (6, 9):
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append([[int(perm[i] == j) for j in range(n)] for i in range(n)])
        for _ in range(3):
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        sparse = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        cases.append(sparse)
    return cases


@pytest.mark.parametrize("prime", [2147483647, 5, 7, 3])
def test_det_mod_equals_the_exact_determinant(prime):
    """det_mod is the subset-DP determinant over ZZ reduced mod p: with zero
    pivots that need a row swap, matrices singular mod p but not over ZZ,
    and permutation matrices, whose sign is the whole determinant."""
    cases = _det_mod_cases()
    for rows in cases:
        expected = _exact_det_mod(rows, prime)
        assert int(evalmod.det_mod(rows, prime)) == expected
    for n in (3, 6, 9):
        same = [rows for rows in cases if len(rows) == n]
        stacked = np.array(same[: len(same) // 2 * 2]).reshape(2, -1, n, n)
        values = evalmod.det_mod(stacked, prime)
        assert values.shape == stacked.shape[:2]
        assert values.ravel().tolist() == [
            _exact_det_mod(rows, prime) for rows in stacked.reshape(-1, n, n).tolist()
        ]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("prime", [2147483647, 5, 7, 3])
def test_definition_values_equal_the_expanded_leaves(prime, seed):
    """f1..f10, h and q from their determinant definitions, and H and Q
    from those values, equal poly_eval_mod of the expanded generator
    polynomials, for a batch of points and for scalar points.  H has the
    denominator 3, so at p = 3 both ways refuse it alike."""
    table = gen.generator_table()
    leaves = dict(zip(gen.F_NAMES, table.f), h=table.h, q=table.q, Q=table.Q, H=table.H)
    points = [sample_point(gen.TRIPLE_NAMES, seed, prime, t) for t in range(12)]
    batch = {n: np.array([pt[n] for pt in points], dtype=np.int64) for n in gen.TRIPLE_NAMES}
    names = tuple(n for n in leaves if not (prime == 3 and n == "H"))
    values = rel.generator_definition_mod(batch, prime, names)
    for name in names:
        assert values[name].tolist() == poly_eval_mod(leaves[name], batch, prime).tolist()
    for point in points[:2]:
        scalar = rel.generator_definition_mod(point, prime, names)
        for name in names:
            assert int(scalar[name]) == poly_eval_mod(leaves[name], point, prime)
    if prime == 3:
        for evaluate in (
            lambda: poly_eval_mod(table.H, batch, prime),
            lambda: rel.generator_definition_mod(batch, prime, ("H",)),
        ):
            with pytest.raises(evalmod.DenominatorNotInvertible, match="^denominator 3 "):
                evaluate()
