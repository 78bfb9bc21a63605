import ast
import hashlib
import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np
from hypothesis import example, given, settings, strategies as st

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


def test_non_integer_point_values_are_refused():
    """A point value that is not an int, a numpy integer or a nested list of
    ints is a PolyError, not the value at a truncated point: x = 2.5 would
    read as x = 2, x = 1/2 as 0, a float array floored."""
    x = Polynomial.variable(ZZ, VS, "x")
    for value in (2.5, Fraction(1, 2), np.array([1.5, 2.0]), "5", [[1, 2], [3]]):
        with pytest.raises(PolyError, match="must be an integer"):
            poly_eval_mod(x**2 + 1, {"x": value}, 7)
    with pytest.raises(PolyError, match="must be an integer"):
        gen.generator_values_mod(dict.fromkeys(gen.TRIPLE_NAMES, 1.5), 7)
    assert poly_eval_mod(x**2 + 1, {"x": np.int32(2)}, 7) == 5


def test_prime_validation():
    check_prime(5)
    check_prime(7)
    check_prime(2147483647)
    with pytest.raises(PolyError):
        check_prime(9)
    with pytest.raises(PolyError):
        check_prime(2)
    check_prime(3)  # what characteristic 3 allows follows from the identity
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
    """A prime that divides denominators of later terms, not of the first,
    is refused with the smallest such denominator: 5, not 15 or their lcm
    30."""
    x, y, z = (Polynomial.variable(QQ, VS, n) for n in VS.names)
    p = x * Fraction(1, 2)
    # 1/2 mod 7 is 4
    assert poly_eval_mod(p, {"x": 1, "y": 0, "z": 0}, 7) == 4
    bad = x * Fraction(1, 7)
    with pytest.raises(PolyError):
        poly_eval_mod(bad, {"x": 1, "y": 0, "z": 0}, 7)
    p = p + y * Fraction(2, 15) + z * Fraction(1, 5)
    assert [c.denominator for c in p.terms.values()] == [2, 15, 5]
    with pytest.raises(evalmod.DenominatorNotInvertible, match="^denominator 5 not invertible mod 5$"):
        poly_eval_mod(p, {"x": 1, "y": 1, "z": 1}, 5)
    # 1/2 + 2/15 + 1/5 = 5/6, and 5 * 6^-1 = 5 * 6 = 30 = 2 mod 7
    assert poly_eval_mod(p, {"x": 1, "y": 1, "z": 1}, 7) == 2


def test_the_denominator_message_does_not_depend_on_the_term_order():
    """One polynomial built with its terms in two orders is refused with one
    message, naming the smallest denominator the prime divides."""
    terms = {(1, 0, 0): Fraction(1, 9), (0, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 6)}
    messages = set()
    for order in (list(terms), list(terms)[::-1]):
        p = Polynomial.from_terms(QQ, VS, {mono: terms[mono] for mono in order})
        assert [c.denominator for c in p.terms.values()] == [terms[m].denominator for m in order]
        with pytest.raises(evalmod.DenominatorNotInvertible) as exc:
            poly_eval_mod(p, {"x": 1, "y": 1, "z": 1}, 3)
        messages.add(str(exc.value))
    assert messages == {"denominator 3 not invertible mod 3"}


EVAL_VARS = VariableSet(("a", "b", "c", "d"))


@st.composite
def eval_cases(draw):
    """(prime, p, point, batch): a polynomial over EVAL_VARS with up to 8
    terms, exponents up to 12 and ZZ or QQ coefficients, whose variable d
    and sometimes others no term uses, at a point that binds every name of
    EVAL_VARS and one it lacks, each to an int (of any size) or to an int64
    array of the batch's length."""
    prime = draw(st.sampled_from((3, 5, 7, 2**31 - 1)))
    ring = draw(st.sampled_from((ZZ, QQ)))
    coeff = st.integers(-(2**70), 2**70)
    if ring is QQ:
        coeff = st.fractions(max_denominator=30).filter(bool) | coeff
    exps = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.just(0))
    p = Polynomial.from_terms(ring, EVAL_VARS, draw(st.dictionaries(exps, coeff, max_size=8)))
    batch = draw(st.integers(1, 4))
    value = st.integers(-(2**80), 2**80) | st.builds(
        lambda v: np.array(v, dtype=np.int64),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=batch, max_size=batch),
    )
    point = {name: draw(value) for name in EVAL_VARS.names + ("unused",)}
    return prime, p, point, batch


@given(eval_cases())
@settings(max_examples=150)
def test_poly_eval_mod_matches_the_naive_oracle(case):
    """poly_eval_mod, which multiplies a variable's power into only the terms
    that use it, gives the oracle's term-by-term value at each trial of a
    batch that mixes int and array bindings, and an int when no binding it
    reads is an array; so does the constant term alone, and the zero
    polynomial is 0.  A prime dividing a denominator is refused with the
    smallest such denominator."""
    prime, p, point, batch = case
    constant = Polynomial.from_terms(p.ring, EVAL_VARS, {(0,) * 4: p.coefficient({})})
    assert poly_eval_mod(Polynomial.zero(p.ring, EVAL_VARS), point, prime) == 0
    for poly in (p, constant):
        bad = sorted(c.denominator for c in poly.terms.values() if c.denominator % prime == 0)
        if bad:
            with pytest.raises(evalmod.DenominatorNotInvertible, match=f"^denominator {bad[0]} not invertible mod {prime}$"):
                poly_eval_mod(poly, point, prime)
            continue
        got = poly_eval_mod(poly, point, prime)
        used = [name for name in EVAL_VARS.names if poly.max_exponent(name)]
        if not any(isinstance(point[name], np.ndarray) for name in used):
            assert type(got) is int
            assert got == oracles.naive_eval_mod(poly, point, prime)
            continue
        assert got.dtype == np.int64 and got.shape == (batch,)
        for k in range(batch):
            trial = {name: int(np.broadcast_to(v, (batch,))[k]) for name, v in point.items()}
            assert int(got[k]) == oracles.naive_eval_mod(poly, trial, prime)


def test_sample_point_determinism_and_range():
    names = tuple(f"v{i}" for i in range(40))
    a = sample_point(names, seed=0, prime=101, trial=3)
    b = sample_point(names, seed=0, prime=101, trial=3)
    assert a == b
    c = sample_point(names, seed=0, prime=101, trial=4)
    d = sample_point(names, seed=1, prime=101, trial=3)
    assert a != c and a != d
    assert all(0 <= v < 101 for v in a.values())


def test_sample_point_stream_is_pinned():
    """Every report is reproducible from its seed only while sample_point
    draws the same points: the sha256 of its points at seeds 0, 1 and
    2**64 - 1, primes 3, 5 and 2**31 - 1 and trials 0..49, one line of
    values per point in TRIPLE_NAMES order, is pinned."""
    digest = hashlib.sha256()
    for seed in (0, 1, 2**64 - 1):
        for prime in (3, 5, 2147483647):
            for trial in range(50):
                point = sample_point(gen.TRIPLE_NAMES, seed, prime, trial)
                assert tuple(point) == gen.TRIPLE_NAMES
                digest.update((" ".join(map(str, point.values())) + "\n").encode())
    assert digest.hexdigest() == (
        "9ad25583f3d571cc6b4ad2451045986875c7373e609b69c17f4f59a68801efa3"
    )


def _batch_equals_per_trial(names, seed, prime, trials):
    batch = sample_point(names, seed, prime, trials)
    assert tuple(batch) == tuple(names)
    assert all(v.dtype == np.int64 and v.shape == (len(trials),) for v in batch.values())
    for k, trial in enumerate(trials):
        assert {n: int(batch[n][k]) for n in names} == sample_point(names, seed, prime, trial)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("prime", [3, 5, 2147483647])
def test_sample_point_batch_equals_the_per_trial_points(seed, prime):
    """A range of trials gives the batch point whose entry k is, name by
    name, the int that trial trials[k] draws alone."""
    _batch_equals_per_trial(gen.TRIPLE_NAMES, seed, prime, range(40))
    _batch_equals_per_trial(gen.TRIPLE_NAMES, seed, prime, range(7, 9))
    _batch_equals_per_trial(tuple("abcde"), seed, prime, range(3))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("prime", [3, 5, 2147483647])
def test_sample_point_batch_redraws_the_trials_that_reject_a_word(monkeypatch, seed, prime):
    """With the word limit at 2**63, about half of the words are rejected,
    so every trial of the batch rejects one of its first 27 words and is
    drawn again word by word; the batch still equals the per-trial points.
    With the real limit a word is rejected with probability p / 2**64 at
    most, about 1e-10, so no other test reaches this path."""
    monkeypatch.setattr(evalmod, "_word_limit", lambda p: 2**63)
    real, redrawn = evalmod._trial_values, []

    def trial_values(n, seed, prime, trial):
        redrawn.append(trial)
        return real(n, seed, prime, trial)

    monkeypatch.setattr(evalmod, "_trial_values", trial_values)
    _batch_equals_per_trial(gen.TRIPLE_NAMES, seed, prime, range(30))
    # the batch redraws each of its trials, then each trial is drawn alone
    assert redrawn == list(range(30)) * 2


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
    assert theorem1.eval_sampled(5, prime, range(6)).tolist() == expected


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
        assert int(oracles.det_mod(rows, prime)) == expected
    for n in (3, 6, 9):
        same = [rows for rows in cases if len(rows) == n]
        stacked = np.array(same[: len(same) // 2 * 2]).reshape(2, -1, n, n)
        values = oracles.det_mod(stacked, prime)
        assert values.shape == stacked.shape[:2]
        assert values.ravel().tolist() == [
            _exact_det_mod(rows, prime) for rows in stacked.reshape(-1, n, n).tolist()
        ]


DET_PRIMES = (3, 5, 7, 2147483647)


@st.composite
def det_stacks(draw):
    """(prime, stack, mats, signs): a stack of shape (n, n) or (b1, b2, n, n),
    n in 1..9, as an int64 array or, when an entry is outside int64, as
    nested lists, its matrices as a flat list, and a sign 1 for each.  The
    draws lean towards the cases elimination mod p must get right: zero
    pivots that force a swap, repeated rows (singular over ZZ), a row
    congruent to another mod p only (singular mod p), entries near p - 1,
    negative entries and entries outside int64."""
    prime = draw(st.sampled_from(DET_PRIMES))
    n = draw(st.integers(1, 9))
    batch = draw(st.sampled_from(((), (1, 1), (2, 1), (1, 3), (2, 2))))
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.integers(prime - 3, prime + 1),
        st.integers(-(2**40), 2**40),
        st.integers(2**63, 2**66) | st.integers(-(2**66), -(2**63) - 1),
    )
    mats = []
    for _ in range(int(np.prod(batch, dtype=int))):
        rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
        shape = draw(st.sampled_from(("plain", "zero pivot", "repeated", "mod p")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if shape == "zero pivot":
            for row in rows[: i + 1]:
                row[: j + 1] = [0] * (j + 1)
        elif shape == "repeated" and i != j:
            rows[j] = list(rows[i])
        elif shape == "mod p" and i != j:
            c = draw(st.integers(1, 3))
            rows[j] = [v + c * prime for v in rows[i]]
        mats.append(rows)
    flat = [v for rows in mats for row in rows for v in row]
    if all(-(2**63) <= v < 2**63 for v in flat):
        stack = np.array(flat, dtype=np.int64).reshape(batch + (n, n))
    else:
        stack = np.array(flat, dtype=object).reshape(batch + (n, n)).tolist()
    return prime, stack, mats, [1] * len(mats)


def _shared_row_case(prime, batch, stacks):
    """(prime, stack, mats, signs) for batch-many stacks (shared, owns): the
    matrices own + shared, own in owns, laid out as det_residues takes them,
    the shared rows first and then each matrix's own rows, in an int64 array
    of shape batch + (rows, n).  Moving o own rows below s shared ones gives
    each determinant the sign (-1)^(o*s), as generator_values_mod folds it."""
    rows, mats = [], []
    for shared, owns in stacks:
        rows += shared + [row for own in owns for row in own]
        mats += [own + shared for own in owns]
    n = len(mats[0])
    stack = np.array(rows, dtype=np.int64).reshape(batch + (-1, n))
    return prime, stack, mats, [(-1) ** (min(n, 3) * (n - min(n, 3)))] * len(mats)


@st.composite
def shared_row_stacks(draw):
    """_shared_row_case of 1..4 n x n matrices, n in 1..9, that share all
    but their first o = min(n, 3) rows, singly or in a batch.  The draws
    lean towards shared rows singular mod p (two rows congruent mod p), a
    column the shared rows leave 0 from some row on (a column swap), and own
    rows repeated across matrices, so that they share more than n - o rows."""
    prime = draw(st.sampled_from(DET_PRIMES))
    n, count = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    own = min(n, 3)
    batch = draw(st.sampled_from(((), (2,))))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(prime - 3, prime + 1),
                      st.integers(-(2**40), 2**40))
    draw_rows = lambda r: [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(r)]
    stacks = []
    for _ in range(int(np.prod(batch, dtype=int))):
        shared, owns = draw_rows(n - own), [draw_rows(own) for _ in range(count)]
        shape = draw(st.sampled_from(("plain", "singular", "column swap", "repeated")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if shape == "singular" and len(shared) > max(i, j) and i != j:
            shared[j] = [v + draw(st.integers(1, 3)) * prime for v in shared[i]]
        elif shape == "column swap" and len(shared) > i:
            for row in shared[i:]:
                row[i] = 0
        elif shape == "repeated" and count > 1:
            owns[1][0] = list(owns[0][0])
        stacks.append((shared, owns))
    return _shared_row_case(prime, batch, stacks)


_SINGULAR_SHARED_ROWS = _shared_row_case(3, (), [(
    [[1, 2, 0, 1, 1, 2], [4, -1, 3, 7, 1, 2], [0, 1, 1, 2, 0, 1]],  # rows 0 and 1 agree mod 3
    [[[1, 0, 0, 2, 1, 1], [0, 1, 2, 0, 1, 0], [2, 2, 1, 1, 0, 1]],
     [[1, 1, 1, 0, 0, 2], [2, 0, 1, 1, 2, 0], [0, 0, 2, 1, 1, 1]]],
)])
_COLUMN_SWAP = _shared_row_case(7, (), [(
    [[0, 1, 2, 3, 4, 5], [0, 2, 1, 5, 3, 1], [0, 1, 1, 1, 2, 2]],  # no pivot in column 0
    [[[1, 0, 0, 2, 1, 1], [3, 1, 2, 0, 1, 0], [2, 2, 1, 1, 0, 1]],
     [[5, 1, 1, 0, 0, 2], [2, 0, 1, 1, 2, 0], [1, 0, 2, 1, 1, 1]]],
)])
_SMALL = _shared_row_case(5, (2,), [
    ([], [[[1, 2], [3, 4]], [[0, 1], [1, 0]], [[5, 5], [5, 5]]]),
    ([], [[[2, -3], [7, 1]], [[0, 0], [1, 1]], [[-1, 4], [4, 9]]]),
])


@given(st.one_of(det_stacks(), shared_row_stacks()))
@example(_SINGULAR_SHARED_ROWS)
@example(_COLUMN_SWAP)
@example(_SMALL)
@example(_shared_row_case(3, (), [([], [[[2]], [[-4]], [[3]]])]))
@settings(max_examples=150)
def test_det_mod_matches_the_fraction_oracle(case):
    """det_mod, on int64 stacks and on nested lists of Python ints, is the
    exact integer determinant reduced mod p, for single matrices and stacks,
    and for stacks of matrices that share all but their first <= 3 rows,
    laid out with the shared rows first, each up to its sign; the signed
    sum of the values is the sum of the determinants, as
    generator_values_mod sums a generator's."""
    prime, stack, mats, signs = case
    values = oracles.det_mod(stack, prime)
    (r, n), own = np.shape(stack)[-2:], min(np.shape(stack)[-1], 3)
    assert values.shape == np.shape(stack)[:-2] + (((r - n) // own + 1,) if r != n else ())
    dets = [oracles.fraction_determinant(rows) for rows in mats]
    assert values.ravel().tolist() == [sign * det % prime for sign, det in zip(signs, dets)]
    assert np.dot(signs, values.ravel()) % prime == sum(dets) % prime
    if isinstance(stack, np.ndarray):
        # the same stack stored batch-last, as generator_values_mod passes it
        batch_last = np.moveaxis(np.moveaxis(stack, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))
        assert oracles.det_mod(batch_last, prime).tolist() == values.tolist()


def test_one_det_mod_call_per_size_and_one_inverse_per_elimination(monkeypatch):
    """generator_values_mod takes its 27 3x3, 3 6x6 and 3 9x9 determinants
    in one det_residues call per size, each a batch-last stack of the rows
    over the points: the 3 shared rows of h and then its 3 x 3 own rows, the
    6 of q and its 3 x 3, and the 27 x 3 rows of the 3x3 ones, which share
    none.  The 3x3 call eliminates and inverts nothing; the h and q calls
    eliminate their shared rows and invert once each, one entry per point."""
    prime = 2147483647
    batch = sample_point(gen.TRIPLE_NAMES, 8, prime, range(4))
    real_det, real_inverse = evalmod.det_residues, evalmod._inverse_mod
    shapes, inverses = [], []

    def det_residues(m, p):
        shapes.append(np.shape(m))
        return real_det(m, p)

    def inverse_mod(a, p):
        inverses.append(a.shape)
        return real_inverse(a, p)

    monkeypatch.setattr(gen, "det_residues", det_residues)
    monkeypatch.setattr(evalmod, "_inverse_mod", inverse_mod)
    values = gen.generator_values_mod(batch, prime)
    assert sorted(shapes) == [(12, 6, 4), (15, 9, 4), (81, 3, 4)]
    assert inverses == [(4,), (4,)]
    for t in range(2):
        inverses.clear()
        scalar = gen.generator_values_mod(sample_point(gen.TRIPLE_NAMES, 8, prime, t), prime)
        assert inverses == [(1,), (1,)]
        assert {name: int(v) for name, v in scalar.items()} == {
            name: int(v[t]) for name, v in values.items()
        }


def test_generator_values_reduce_each_coordinate_once(monkeypatch):
    """generator_values_mod reduces the 27 coordinates of a batch of 5
    points once each and hands the stacks gathered from them to the
    determinants without reducing them again: 27 reductions of 5 entries."""
    prime = 2147483647
    batch = sample_point(gen.TRIPLE_NAMES, 8, prime, range(5))
    real = evalmod.residues
    reduced = []

    def residues(values, p):
        reduced.append(np.size(values))
        return real(values, p)

    monkeypatch.setattr(evalmod, "residues", residues)
    monkeypatch.setattr(gen, "residues", residues)
    gen.generator_values_mod(batch, prime)
    assert reduced == [5] * 27


# -- ranks and row orders mod p ----------------------------------------------


def _as_stack(mats, batch, r, c):
    """mats as an int64 array of shape batch + (r, c), or as nested lists
    when an entry is outside int64."""
    flat = [v for rows in mats for row in rows for v in row]
    if all(-(2**63) <= v < 2**63 for v in flat):
        return np.array(flat, dtype=np.int64).reshape(batch + (r, c))
    return np.array(flat, dtype=object).reshape(batch + (r, c)).tolist()


def _entries(prime):
    return st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.integers(prime - 2, prime + 1),
        st.integers(-(2**40), 2**40),
        st.integers(2**64, 2**66) | st.integers(-(2**66), -(2**64)),
    )


@st.composite
def rank_stacks(draw):
    """(prime, stack, mats): r x c matrices, r and c in 1..7, singly or in a
    stack, leaning towards rank deficits: leading zero columns (a step with
    no pivot in its column), a row that is a combination of two others
    (a deficit over Q), a row congruent to another mod p only (a deficit mod
    p alone), negative entries and entries beyond 2**64."""
    prime = draw(st.sampled_from(DET_PRIMES))
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    batch = draw(st.sampled_from(((), (2,), (1, 3))))
    mats = []
    for _ in range(int(np.prod(batch, dtype=int))):
        rows = [draw(st.lists(_entries(prime), min_size=c, max_size=c)) for _ in range(r)]
        shape = draw(st.sampled_from(("plain", "zero columns", "combination", "mod p")))
        i, j, k = (draw(st.integers(0, r - 1)) for _ in range(3))
        if shape == "zero columns":
            zeros = draw(st.integers(1, c))
            for row in rows:
                row[:zeros] = [0] * zeros
        elif shape == "combination" and len({i, j, k}) == 3:
            rows[k] = [a - 2 * b for a, b in zip(rows[i], rows[j])]
        elif shape == "mod p" and i != j:
            rows[j] = [v + draw(st.integers(1, 3)) * prime for v in rows[i]]
        mats.append(rows)
    return prime, _as_stack(mats, batch, r, c), mats


def _parity(order):
    return (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))


@given(rank_stacks())
@settings(max_examples=100)
def test_echelon_mod_rank_matches_the_gf_p_oracle(case):
    """echelon_mod's rank is oracles.rank_mod's, matrix by matrix; it is at
    most the rank over Q, which is what makes full rank mod p a proof of
    full rank over Q.  The order is a permutation of the rows and the sign
    is its parity."""
    prime, stack, mats = case
    rank, order, sign = evalmod.echelon_mod(stack, prime)
    batch = np.shape(stack)[:-2]
    assert rank.shape == sign.shape == batch
    assert order.shape == batch + (len(mats[0]),)
    orders = order.reshape(-1, len(mats[0])).tolist()
    for rows, got, row_order, s in zip(mats, rank.ravel().tolist(), orders, sign.ravel().tolist()):
        assert got == oracles.rank_mod(rows, prime) <= oracles.fraction_rank(rows)
        assert sorted(row_order) == list(range(len(rows)))
        assert s == _parity(row_order)


@st.composite
def full_rank_squares(draw):
    """(prime, rows): P * L * U mod p with P a permutation, L unit lower
    triangular and U upper triangular with a diagonal nonzero mod p, so full
    rank mod p, with entries moved by multiples of p, some beyond 2**64."""
    prime = draw(st.sampled_from(DET_PRIMES))
    n = draw(st.integers(1, 8))
    small = st.integers(-3, 3)
    perm = draw(st.permutations(range(n)))
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [
        [draw(st.integers(1, prime - 1)) if i == j else draw(small) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    lu = oracles.mat_mul_int(lower, upper)
    shift = st.sampled_from((0, 0, -1, 2, 2**64 // prime + 1))
    return prime, [[v + draw(shift) * prime for v in lu[perm[i]]] for i in range(n)]


@given(full_rank_squares())
@settings(max_examples=100)
def test_echelon_mod_order_puts_every_pivot_in_place(case):
    """On a square matrix of full rank mod p, the rows in echelon_mod's order
    have every leading principal minor nonzero mod p, so det_mod's
    elimination swaps nothing on them, and their determinant is the sign
    times the matrix's."""
    prime, rows = case
    n = len(rows)
    rank, order, sign = evalmod.echelon_mod(rows, prime)
    assert int(rank) == n
    reordered = [rows[i] for i in order.tolist()]
    for k in range(1, n + 1):
        assert oracles.fraction_determinant([row[:k] for row in reordered[:k]]) % prime != 0
    assert int(oracles.det_mod(reordered, prime)) == int(sign) * int(oracles.det_mod(rows, prime)) % prime


def test_det_mod_and_echelon_mod_run_one_elimination_step(monkeypatch):
    """The package has one elimination mod p: the row update
    pivot*row_i + (p - a_ik)*row_k is written once in evalmod, in
    _eliminate_column, and det_mod (on the rows its matrices share) and
    echelon_mod take every step through it, det_mod with the pivots bounded
    to the shared rows: the first n - 3 of a lone n x n matrix."""
    tree = ast.parse(inspect.getsource(evalmod))
    owners = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.BinOp)
            and isinstance(side.op, ast.Sub)
            and isinstance(side.left, ast.Name)
            and side.left.id == "prime"
            for side in (node.left, node.right)
        )
    ]
    assert owners == ["_eliminate_column"]
    real = evalmod._eliminate_column
    steps = []

    def step(m, k, p, rows):
        steps.append((m.shape, k, rows))
        return real(m, k, p, rows)

    monkeypatch.setattr(evalmod, "_eliminate_column", step)
    rng = random.Random(25)
    mats = [[[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)] for _ in range(2)]
    oracles.det_mod(mats, 7)
    assert steps == [((6, 6, 2), k, 3) for k in range(3)]
    steps.clear()
    evalmod.echelon_mod([row[:5] for row in mats[0][:4]], 7)
    assert steps == [((4, 5, 1), k, 4) for k in range(4)]


def _record_steps(monkeypatch):
    """Wrap evalmod._eliminate_column; each step appends (the stack's
    shape, its pivots m[k, k] after the step, its swapped rows and columns)."""
    real, steps = evalmod._eliminate_column, []

    def step(m, k, p, rows):
        swapped, pairs, moved = real(m, k, p, rows)
        steps.append((m.shape[:2], m[k, k].copy(), len(swapped) + len(moved)))
        return swapped, pairs, moved

    monkeypatch.setattr(evalmod, "_eliminate_column", step)
    return steps


@pytest.mark.parametrize("prime", [2147483647, 2147483629])
def test_reordered_h_and_q_rows_need_no_swap_at_sampled_points(monkeypatch, prime):
    """generator_values_mod lays out each size's stack with its shared rows
    first, then each matrix's own rows, read-only, and eliminates the shared
    rows of h and q once per point.  The diagonal of the shared rows holds
    distinct coordinates, of A1 for h and of A1 and A3 for q, so no step
    swaps a row or a column at 200 sampled points."""
    for names, idx, _ in gen._LAYOUTS:
        n = idx.shape[1]
        shared, own = idx[: n - 3], idx[n - 3 :].reshape(-1, 3, n)
        mats = np.concatenate([gen.GENERATOR_DETERMINANTS[name] for name in names])
        assert (mats[:, :3] == own).all() and (mats[:, 3:] == shared).all()
        assert not idx.flags.writeable
        diagonal = [shared[k, k] for k in range(n - 3)]
        assert gen.ZERO_SLOT not in diagonal and len(set(diagonal)) == n - 3
    steps = _record_steps(monkeypatch)
    gen.generator_values_mod(sample_point(gen.TRIPLE_NAMES, 3, prime, range(200)), prime)
    assert [(shape, swaps) for shape, _, swaps in steps] == [((12, 6), 0)] * 3 + [((15, 9), 0)] * 6


def test_singular_shared_rows_give_zero_mod_3(monkeypatch):
    """At p = 3 the shared rows of h, and of q, are singular at some of 300
    sampled points: an elimination step finds no pivot there.  Every matrix
    of the stack is then singular, so h, or q, is 0, which the expanded
    polynomial confirms."""
    prime, table = 3, gen.generator_table()
    steps = _record_steps(monkeypatch)
    batch = sample_point(gen.TRIPLE_NAMES, 0, prime, range(300))
    values = gen.generator_values_mod(batch, prime)
    for name, shape, leaf in (("h", (12, 6), table.h), ("q", (15, 9), table.q)):
        singular = np.any([pivots == 0 for got, pivots, _ in steps if got == shape], axis=0)
        assert singular.any()
        assert not values[name][singular].any()
        assert values[name].tolist() == poly_eval_mod(leaf, batch, prime).tolist()


def test_importing_generators_samples_and_eliminates_nothing():
    """The layout generator_values_mod reads is built from
    GENERATOR_DETERMINANTS alone: importing generators in a fresh
    interpreter draws no point and runs no elimination."""
    script = """
from semiinv import evalmod
calls = []
for name in ("sample_point", "echelon_mod", "det_residues", "_eliminate_column"):
    setattr(evalmod, name, lambda *args, name=name: calls.append(name))
from semiinv import generators
print(calls)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(evalmod.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_definition_path_accepts_integers_outside_int64():
    """A point whose coordinates lie outside int64, or are negative, has the
    same generator values from the determinant definitions as from the
    expanded polynomials, as at its residues; det_mod reduces Python ints
    before it converts them."""
    prime = 2147483647
    table = gen.generator_table()
    leaves = dict(zip(gen.F_NAMES, table.f), h=table.h, q=table.q)
    base = sample_point(gen.TRIPLE_NAMES, 6, prime, 0)
    point = {
        name: v + 2**64 + k if k % 2 else -v - 2**70 * k
        for k, (name, v) in enumerate(base.items())
    }
    assert min(point.values()) < 0 and max(point.values()) >= 2**64
    residues = {name: v % prime for name, v in point.items()}
    values = gen.generator_values_mod(point, prime)
    at_residues = gen.generator_values_mod(residues, prime)
    for name, leaf in leaves.items():
        assert int(values[name]) == poly_eval_mod(leaf, point, prime)
        assert int(values[name]) == int(at_residues[name])
    expr = rel.main_relation_expr()
    assert expr.eval_mod(point, prime) == 0
    mutant = rel.main_relation_expr(rel.defining_relation() + 1)
    assert mutant.eval_mod(point, prime) == 1
    big = [[2**64, 1], [-3, -(2**70)]]
    assert int(oracles.det_mod(big, prime)) == (-(2**134) + 3) % prime


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("prime", [2147483647, 5, 7, 3])
def test_definition_values_equal_the_expanded_leaves(prime, seed):
    """f1..f10, h and q from their determinant definitions, and H and Q
    from those values, as the triple identities' Definition gives them for
    a sampled batch, equal poly_eval_mod of the expanded generator
    polynomials at that batch point, and so does a batch of one trial.  H
    has the denominator 3, so at p = 3 both ways refuse it alike."""
    table = gen.generator_table()
    leaves = dict(zip(gen.F_NAMES, table.f), h=table.h, q=table.q, Q=table.Q, H=table.H)
    definition = rel.generator_definition()
    names = tuple(n for n in leaves if not (prime == 3 and n == "H"))
    for trials in (range(12), range(5, 6)):
        batch = sample_point(gen.TRIPLE_NAMES, seed, prime, trials)
        values = definition.sampled(seed, prime, trials, names)
        for name in names:
            assert values[name].tolist() == poly_eval_mod(leaves[name], batch, prime).tolist()
    if prime == 3:
        for evaluate in (
            lambda: poly_eval_mod(table.H, batch, prime),
            lambda: definition.sampled(seed, prime, trials, ("H",)),
        ):
            with pytest.raises(evalmod.DenominatorNotInvertible, match="^denominator 3 "):
                evaluate()
