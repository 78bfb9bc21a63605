"""The generating invariants of 3x3 matrix triples and the GL3 action.

The ten cubic generators are the coefficients of det(t1*A1 + t2*A2 + t3*A3);
h and q are coefficients of 6x6 and 9x9 block determinants in t1..t3 and
t1..t6.  By row multilinearity each of the twelve is a sum of plain
determinants in the 27 entries: GENERATOR_DETERMINANTS is that one integer
table, with the argument next to it.  determinant_sum reads it as exact
polynomials, for a GeneratorTable: the 3x3 and 6x6 stacks (f1..f10, h) on
the dict DP of PolyMatrix.determinant, and the 9x9 ones (q) on
columnar_determinant_sum, the same subset DP on numpy arrays, whose result
is born columnar.  generator_values_mod reads it as values at points mod p,
with no expansion.  The modular runs of the triple identities
read those values at a sampled batch point through the memo
sampled_generator_values, and the generators' degree bounds,
GENERATOR_DEGREES, off the same table.  H and Q are the rational
corrections of h and q that are fixed by the unipotent upper-triangular
subgroup (highest weight vectors of weights (2,2,2) and (3,3,3)).
generators_of(T) is the one builder of a triple's generators: its
GeneratorTable builds f1..f10 with the table, and h, q, H and Q on their
first read only.

Gradings are data next to the names they weigh, for Polynomial.degrees:
BLOCK_WEIGHTS gives the degree in the entries of (A1, A2, A3), and F_WEIGHTS
gives f_n the exponent triple (i, j, k) it is the coefficient of.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .evalmod import det_residues, residues, sample_point
from .matrix import PolyMatrix
from .poly import QQ, ZZ, Polynomial, PolyError, Ring, VariableSet, exponent_sums, key_layout, key_rows, sum_by_key

# Coordinate functions of the generic triple: entry (i,j) of matrix r is x{r}_{ij}.
TRIPLE_NAMES = tuple(
    f"x{r}_{i}{j}" for r in (1, 2, 3) for i in (1, 2, 3) for j in (1, 2, 3)
)
TRIPLE_VARS = VariableSet(TRIPLE_NAMES)
BLOCK_NAMES = tuple(TRIPLE_NAMES[9 * r : 9 * r + 9] for r in range(3))
BLOCK_WEIGHTS = {
    name: tuple(int(b == r) for b in range(3))
    for r, names in enumerate(BLOCK_NAMES)
    for name in names
}

T_NAMES = ("t1", "t2", "t3")

# f-numbering: the ten exponent triples (i, j, k) with i+j+k = 3, in the
# order that defines f1..f10.
F_INDEX = (
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
    (1, 1, 1),
    (1, 0, 2),
    (0, 3, 0),
    (0, 2, 1),
    (0, 1, 2),
    (0, 0, 3),
)
F_NAMES = tuple(f"f{i}" for i in range(1, 11))
F_WEIGHTS = dict(zip(F_NAMES, F_INDEX))

# Correction coefficients making H = h + sum(c * f_i * f_j) and
# Q = q + sum(c * prod) highest weight vectors.  A factor key is n for f_n and
# "h" for h.  These two tables are the only place the correction monomials are
# written: H and Q, the bases the corrections are solved in, the abstract
# forms in the 12-variable ring and the printed labels all come from them.
H_CORRECTIONS = (
    (Fraction(-1, 3), (2, 9)),
    (Fraction(-1, 3), (3, 8)),
    (Fraction(2, 3), (4, 6)),
    (Fraction(1, 12), (5, 5)),
)
Q_CORRECTIONS = (
    (Fraction(-1, 2), ("h", 5)),
    (Fraction(3, 2), (1, 7, 10)),
    (Fraction(-1, 2), (1, 8, 9)),
    (Fraction(-1, 2), (7, 3, 6)),
    (Fraction(-1, 2), (10, 2, 4)),
    (Fraction(-1, 2), (5, 4, 6)),
    (Fraction(1, 2), (2, 6, 8)),
    (Fraction(1, 2), (4, 3, 9)),
)


def correction_factors(f: Sequence[Polynomial], h: Polynomial) -> dict:
    """Factor key -> polynomial: n -> f[n - 1] and "h" -> h."""
    return {**dict(enumerate(f, start=1)), "h": h}


def correction_label(keys: Sequence) -> str:
    """A correction monomial as printed: (1, 2, 2) -> "f1*f2^2" and
    ("h", 3) -> "h*f3"."""
    names = [k if k == "h" else f"f{k}" for k in keys]
    return "*".join(
        name if names.count(name) == 1 else f"{name}^{names.count(name)}"
        for name in dict.fromkeys(names)
    )


def correction_sum(ring: Ring, vars: VariableSet, terms) -> Polynomial:
    """sum(c * product of the factors) over (c, factors) pairs, each with at
    least one factor over vars, in ring.

    One fraction-free Polynomial.columnar_sum over (c, first factor, product
    of the other factors), the constant 1 for a lone factor: no term's full
    product is built.  Passing the full products raised the peak RSS of a
    fresh interpreter building the table with H and Q from 36.0 to 38.6 MB.
    The result is born columnar: its multidegree, certificates and values
    mod p read its exponent matrix and numerators, and its dict of terms is
    built only if something reads it."""
    one = Polynomial.constant(ZZ, vars, 1)
    triples = [(c, first, reduce(Polynomial.mul, rest) if rest else one) for c, (first, *rest) in terms]
    return Polynomial.columnar_sum(ring, vars, triples)


def combine_correction(base: Polynomial, factors: Mapping, table, coeffs=None) -> Polynomial:
    """base + sum(c * product) over the entries of a correction table, in QQ,
    as one correction_sum.  coeffs, when given, replaces the table's
    coefficients (a solved correction)."""
    if coeffs is None:
        coeffs = [c for c, _ in table]
    terms = [(c, [factors[k] for k in keys]) for c, (_, keys) in zip(coeffs, table, strict=True)]
    return correction_sum(QQ, base.vars, [(1, (base,)), *terms])


# the name the benchmark workloads call, with int keys and a table of H's shape
combine_h_correction = combine_correction


@dataclass(frozen=True)
class MatrixTriple:
    """Three 3x3 polynomial matrices over one shared ring and variable set."""

    a1: PolyMatrix
    a2: PolyMatrix
    a3: PolyMatrix

    def __post_init__(self):
        for m in (self.a1, self.a2, self.a3):
            if m.n != 3:
                raise PolyError("triples consist of 3x3 matrices")
            if m.ring != self.a1.ring or m.vars != self.a1.vars:
                raise PolyError("triple components must share ring and variables")

    @property
    def vars(self) -> VariableSet:
        return self.a1.vars

    @property
    def ring(self) -> Ring:
        return self.a1.ring

    def components(self):
        return (self.a1, self.a2, self.a3)


def generic_triple() -> MatrixTriple:
    mats = []
    for r in (1, 2, 3):
        mats.append(
            PolyMatrix.from_names(
                ZZ, TRIPLE_VARS, [[f"x{r}_{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
            )
        )
    return MatrixTriple(*mats)


SKEW_PARAM_NAMES = ("x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3")
SKEW_VARS = VariableSet(SKEW_PARAM_NAMES)


def skew_triple() -> MatrixTriple:
    """The generic skew-symmetric triple with parameter columns (x_r, y_r, z_r)."""

    def comp(r):
        x = Polynomial.variable(ZZ, SKEW_VARS, f"x{r}")
        y = Polynomial.variable(ZZ, SKEW_VARS, f"y{r}")
        zz = Polynomial.variable(ZZ, SKEW_VARS, f"z{r}")
        zero = Polynomial.zero(ZZ, SKEW_VARS)
        return PolyMatrix([[zero, -x, -y], [x, zero, -zz], [y, zz, zero]])

    return MatrixTriple(comp(1), comp(2), comp(3))


def skew_parameter_matrix() -> PolyMatrix:
    """Columns are the parameter vectors of the three skew components."""
    return PolyMatrix.from_names(
        ZZ, SKEW_VARS, [["x1", "x2", "x3"], ["y1", "y2", "y3"], ["z1", "z2", "z3"]]
    )


WEIERSTRASS_VARS = VariableSet(("a", "b"))


def weierstrass_triple() -> MatrixTriple:
    """The triple whose determinant pencil is the Weierstrass cubic
    t3^3 + t2^2*t1 - b^2*t1^2*t3 - a^2*t1^3."""
    a = Polynomial.variable(ZZ, WEIERSTRASS_VARS, "a")
    b = Polynomial.variable(ZZ, WEIERSTRASS_VARS, "b")
    zero = Polynomial.zero(ZZ, WEIERSTRASS_VARS)
    one = Polynomial.constant(ZZ, WEIERSTRASS_VARS, 1)
    m1 = PolyMatrix([[one, zero, zero], [zero, a, -b], [b, zero, -a]])
    m2 = PolyMatrix([[zero, zero, zero], [zero, one, zero], [zero, zero, one]])
    m3 = PolyMatrix([[zero, one, zero], [zero, zero, one], [one, zero, zero]])
    return MatrixTriple(m1, m2, m3)


# -- the twelve generators as sums of determinants ------------------------------
#
# GENERATOR_DETERMINANTS is the one definition of f1..f10, h and q.  It maps
# each name to a stack of index matrices into the 27 coordinates of a triple,
# in TRIPLE_NAMES order (entry (i, j) of A_r at 9*(r-1) + 3*(i-1) + (j-1)), and
# ZERO_SLOT, which stands for 0; the generator is the sum of the determinants
# of the stack.  determinant_sum reads it over the polynomial entries of a
# triple, generator_values_mod over the values of a point mod p.
#
# Why these sums are the paper's definitions.  A determinant is linear in each
# row: if row i of M is u + v, then det M = det M_u + det M_v, where M_u and M_v
# have row i replaced by u and by v.
# - f_ijk is the coefficient of t1^i t2^j t3^k in det(t1*A1 + t2*A2 + t3*A3).
#   Row i of the pencil is the sum over r of t_r times row i of A_r, so the
#   pencil determinant is the sum over the 27 choices (r1, r2, r3) of
#   t_r1*t_r2*t_r3 times the mixed determinant that takes row i from A_ri.
#   f_ijk sums the choices that take i rows from A1, j from A2 and k from A3:
#   1, 3 or 6 mixed 3x3 determinants.
# - h is the coefficient of t1^2 t2^2 t3^2 in
#   det([[t2*A2, t1*A1], [t1*A1, t3*A3]]), and q that of
#   t1^2 t2 t3^2 t4 t5^2 t6 in
#   det([[0, t1*A1, t2*A2], [t4*A1, 0, t3*A3], [t5*A2, t6*A3, 0]]).  A Leibniz
#   term takes one entry from each row and each column, and every block row
#   and block column has 3 of them.  So in h, a term that takes a entries from
#   block (1, 2) takes 3 - a from block (1, 1), 3 - a from (2, 2) and a from
#   (2, 1): its t-monomial is t1^(2a) t2^(3-a) t3^(3-a), and h is the sum of
#   the Leibniz terms of M = [[A2, A1], [A1, A3]] with a = 1.  In q, a entries
#   from block (1, 2) force 3 - a from (1, 3), a from (2, 3), 3 - a from (2, 1),
#   a from (3, 1) and 3 - a from (3, 2): the monomial is
#   t1^a t2^(3-a) t3^a t4^(3-a) t5^a t6^(3-a), and q is the sum of the terms of
#   M = [[0, A1, A2], [A1, 0, A3], [A2, A3, 0]] with a = 2.
#   Split each of the first three rows of M into its part in block (1, 2) plus
#   the rest.  By linearity det M is the sum over the subsets S of these rows
#   of det M_S, where a row in S keeps only its block (1, 2) part and the
#   other two keep only the rest.  A Leibniz term of M_S is either 0 or the
#   term of M that takes its block (1, 2) entries from exactly the rows in S.
#   So the terms with a given a sum to the det M_S with |S| = a: three 6x6
#   determinants for h and three 9x9 ones for q.
# Each determinant is a determinant of integers at an integer point, so its
# value mod p is the generator's value mod p in any odd characteristic, with
# no interpolation and no denominator.  The three M_S of h, and of q, share
# every row but the three that S splits, so generator_values_mod eliminates
# their shared rows once per point (_shared_row_layouts).

ZERO_SLOT = len(TRIPLE_NAMES)


def _pencil_terms(ijk: tuple) -> list:
    """The mixed determinants of f_ijk: row i from A_(r_i), for the choices
    (r1, r2, r3) that take i rows from A1, j from A2 and k from A3."""
    return [
        [[9 * r + 3 * i + j for j in range(3)] for i, r in enumerate(rows)]
        for rows in itertools.product(range(3), repeat=3)
        if tuple(rows.count(r) for r in range(3)) == ijk
    ]


def _block_terms(layout: tuple, a: int) -> list:
    """The matrices M_S, |S| = a, of the block matrix M of layout, whose
    blocks are components 0, 1, 2 (A1, A2, A3) or None (zero)."""
    rows = [
        [ZERO_SLOT if r is None else 9 * r + 3 * i + j for r in block_row for j in range(3)]
        for block_row in layout
        for i in range(3)
    ]
    in_block = [[k if 3 <= c < 6 else ZERO_SLOT for c, k in enumerate(row)] for row in rows[:3]]
    rest = [[ZERO_SLOT if 3 <= c < 6 else k for c, k in enumerate(row)] for row in rows[:3]]
    return [
        [in_block[i] if i in S else rest[i] for i in range(3)] + rows[3:]
        for S in itertools.combinations(range(3), a)
    ]


GENERATOR_DETERMINANTS = {
    **{name: np.array(_pencil_terms(ijk)) for name, ijk in zip(F_NAMES, F_INDEX)},
    "h": np.array(_block_terms(((1, 0), (0, 2)), 1)),
    "q": np.array(_block_terms(((None, 0, 1), (0, None, 2), (1, 2, None)), 2)),
}
for _stack in GENERATOR_DETERMINANTS.values():
    _stack.setflags(write=False)

# A bound on each generator's total degree: an n x n matrix of the table has
# entries of degree <= 1 (a coordinate or 0), so its determinant has degree
# <= n: 3, 6 and 9 for f, h and q.
GENERATOR_DEGREES = {name: stack.shape[-1] for name, stack in GENERATOR_DETERMINANTS.items()}


def determinant_sum(T: MatrixTriple, name: str) -> Polynomial:
    """The generator name of GENERATOR_DETERMINANTS as a polynomial in the
    variables of the triple: the sum of its determinants over T's entries.

    The kernel is chosen by the stack's order alone.  The 9x9 stacks (q)
    go to columnar_determinant_sum: on the generic triple a cold q takes
    5.2 ms and peaks at 0.46 MiB of tracemalloc, against 15.6 ms and 1.02
    MiB on the dict DP (medians of 11 fresh interpreters on a 2-core VM,
    BENCH_43.json), and q is born columnar, so it keeps its rows and
    numerators (0.2 MiB), never a dict of 5748 big-int keys unless
    something reads its terms.  The 3x3 and 6x6 stacks (f1..f10, h) keep
    PolyMatrix.determinant, the dict DP, one call per matrix, which is the
    faster kernel there: h in about 0.9-1.1 ms against 1.4-1.6 ms, an f_n
    in 0.05-0.4 ms against 0.6-2.5 ms (in-process medians)."""
    entries = [e for m in T.components() for row in m.rows for e in row]
    entries.append(Polynomial.zero(T.ring, T.vars))
    stack = GENERATOR_DETERMINANTS[name]
    if stack.shape[-1] == 9:
        return columnar_determinant_sum(entries, stack)
    return reduce(
        Polynomial.__add__,
        (PolyMatrix([[entries[k] for k in row] for row in idx]).determinant() for idx in stack.tolist()),
    )


def columnar_determinant_sum(entries: Sequence[Polynomial], stack: np.ndarray) -> Polynomial:
    """The sum of the determinants of stack, a (count, n, n) array of indices
    into entries, polynomials over one ring and variable set.  It runs the
    column-subset DP of Polynomial.determinant on numpy arrays, one
    whole row of the matrices at a time, and fills no dict: the result is
    born columnar (Polynomial.from_columns), its rows in increasing
    lexicographic order, its `terms` built only if something reads them.

    A state is one term of a partial minor: the rows processed so far took
    the columns of its mask, and it has a monomial and a coefficient.  Its
    key is mask * 2**B + the key_layout key of the monomial, B the layout's
    bits.  Processing row k pairs each state with each term of each entry
    (k, j) whose column j is free, and poly.sum_by_key merges the pairs of
    equal key; a sum of 0 is dropped.  The states of the last row have the
    full mask, and key_rows decodes their monomials.  Exact:

    * Sign.  A pair multiplies its state by the entry's term and by
      (-1)**(k + the number of the mask's columns below j): the Laplace
      expansion along its last row of the minor on rows 0..k and the
      columns mask | j, as in Polynomial.determinant.
    * Shared rows.  If the matrices agree on every row from s on (q's three
      M_S differ only in the three rows that S splits), the rows below s
      run per matrix, and the matrices' states are then merged: every
      determinant is the same linear function of its states on rows 0..s-1,
      so adding the states adds the determinants.  The shared rows then run
      once, each next the one that makes the fewest pairs: on q, 18147
      pairs in all and 6480 at the largest row, against 27111 and 9612 in
      row order.  In that order the DP computes the determinant of
      the matrices with their rows permuted, and the sum is multiplied by
      the permutation's sign, the parity of the positions the picks took
      among the rows left.
    * Keys.  The exponent of a variable in any partial product is at most
      its bound, the sum over the rows of the row's largest exponent of it
      in an entry of any matrix.  key_layout over these bounds is injective
      and a key plus a key whose digits stay within the bounds does not
      carry; a mask bit is set only on a free column, so it does not carry
      either.  State keys are int64 when n + B <= 63, Python ints (dtype
      object) otherwise.  A bound past 255 raises PolyError, as mul's guard
      does: key_rows decodes digits to uint8.
    * Coefficients.  With L the lcm of the entries' denominators, L * entry
      has int numerators and det(L * M) = L**n * det(M): the states run in
      ints, and the sum is divided once by L**n, reduced by the gcd of the
      sums as in columnar_sum.  A state's coefficient, and every partial sum
      of it, sums distinct products of one term from each row processed, so
      its magnitude is at most the sum over the matrices of the product over
      the rows of max(1, the row's sum of |numerators|).  The coefficients
      are int64 when that bound is below 2**63, Python ints otherwise.  No
      float is used."""
    ring, vars = entries[0].ring, entries[0].vars
    if any(e.ring != ring or e.vars != vars for e in entries):
        raise PolyError("matrix entries must share ring and variable set")
    n = stack.shape[-1]
    L = lcm(*(e.numerators()[0] for e in entries))
    tops = np.array([e.exponents().max(axis=0, initial=0) for e in entries], np.int64)
    bound = tops[stack].max(axis=(0, 2)).sum(axis=0)
    if bound.max(initial=0) > 255:
        raise PolyError("product exceeds the per-variable exponent bound 255")
    places, radices = key_layout(bound.tolist())
    B = sum(int(b).bit_length() for b in bound.tolist())
    word = np.int64 if n + B <= 63 else object
    scaled = [[c * (L // e.numerators()[0]) for c in e.numerators()[1]] for e in entries]
    cap = sum(prod(max(1, sum(abs(c) for e in row for c in scaled[e])) for row in m) for m in stack.tolist())
    coeff = np.int64 if cap < 2**63 else object
    terms = [(exponent_sums(e.exponents(), places).astype(word), cs) for e, cs in zip(entries, scaled)]
    bits = (np.arange(2**n)[:, None] >> np.arange(n) & 1).astype(bool)
    free, odd = ~bits, (np.cumsum(bits, axis=1) - bits) % 2 == 1  # [mask, j]: j free, odd columns below j

    def pairs(states, coefs, k, row):
        """The keys and coefficients of row k's pairs, moves column by column."""
        masks = (states >> B).astype(np.intp)
        moves = [(j, np.flatnonzero(free[masks, j]), *terms[e]) for j, e in enumerate(row) if terms[e][1]]
        new = np.empty(sum(len(sel) * len(cs) for _, sel, _, cs in moves), word)
        vals = np.empty(len(new), coeff)
        at = 0
        for j, sel, keys, cs in moves:
            flip = odd[masks[sel], j] != k % 2
            for key, c in zip(keys, cs):
                part = slice(at, at + len(sel))
                np.add(states[sel], key + 2 ** (B + j), out=new[part])
                np.multiply(coefs[sel], c, out=vals[part])
                np.negative(vals[part], out=vals[part], where=flip)
                at += len(sel)
        return new, vals

    def merged(keys, values):
        keys, values = sum_by_key(keys, values)
        kept = np.flatnonzero(values)
        return keys[kept], values[kept]

    s = n
    while s and (stack[:, s - 1] == stack[0, s - 1]).all():
        s -= 1
    parts = []
    for idx in stack.tolist():
        states, coefs = np.zeros(1, word), np.ones(1, coeff)
        for k in range(s):
            states, coefs = merged(*pairs(states, coefs, k, idx[k]))
        parts.append((states, coefs))
    states, coefs = merged(*map(np.concatenate, zip(*parts)))
    rest, flip, sizes = list(range(s, n)), False, np.array([len(cs) for cs in scaled])
    for k in range(s, n):
        free_count = free[(states >> B).astype(np.intp)].sum(axis=0)  # states with column j free
        i = int(np.argmin(sizes[stack[0, rest]] @ free_count))
        flip ^= i % 2 == 1
        states, coefs = merged(*pairs(states, coefs, k, stack[0, rest.pop(i)].tolist()))
    nums = (-coefs if flip else coefs).tolist()
    del coefs
    den = L**n
    g = gcd(den, *nums)
    nums = tuple(v // g for v in nums) if g > 1 else tuple(nums)
    states -= (2**n - 1) * 2**B
    exps = key_rows(states.astype(places.dtype, copy=False), places, radices)
    return Polynomial.from_columns(ring, vars, exps, den // g, nums, int(bound.max(initial=0)) if nums else 0)


def _shared_row_layouts() -> tuple:
    """GENERATOR_DETERMINANTS laid out for det_residues, one stack per matrix
    size n: (names, index rows, a (names, matrices) matrix of signs, 0 off a
    name's own matrices).  The matrices of one size share all rows but their
    first o = min(n, 3): the 3x3 ones of f1..f10 share none, and the three
    M_S of h, and of q, differ only in the rows that S splits.  The index
    rows are the s = n - o shared rows, then each matrix's own rows; moving
    these below the shared ones gives each determinant the sign (-1)^(o*s),
    which its sign folds in."""
    layouts = []
    for n in dict.fromkeys(stack.shape[-1] for stack in GENERATOR_DETERMINANTS.values()):
        names = tuple(name for name, stack in GENERATOR_DETERMINANTS.items() if stack.shape[-1] == n)
        own = min(n, 3)
        mats = [rows for name in names for rows in GENERATOR_DETERMINANTS[name].tolist()]
        counts = [len(GENERATOR_DETERMINANTS[name]) for name in names]
        signs = np.repeat(np.eye(len(names), dtype=np.int64), counts, axis=1) * (-1) ** (own * (n - own))
        idx = np.array(mats[0][own:] + [row for rows in mats for row in rows[:own]])
        for array in (idx, signs):
            array.setflags(write=False)
        layouts.append((names, idx, signs))
    return tuple(layouts)


_LAYOUTS = _shared_row_layouts()


def generator_values_mod(point: Mapping, prime: int) -> dict:
    """f1..f10, h and q at a point of the 27 coordinates mod p: the signed
    sums of the determinants of GENERATOR_DETERMINANTS, taken with
    evalmod.det_residues in one call per size, which eliminates the rows the
    size's matrices share once per point.  The coordinates are reduced once
    and stacked, so that indexing them with a layout's index rows gives the
    stack of residues batch-last.  The values of the point are ints of any
    size, or int arrays of one shape for a batch of points; each result is
    an int64 of that shape.  A value sums at most 6 signed determinants in
    [0, p), p < 2**31, far inside int64."""
    x = np.stack([residues(point[name], prime) for name in TRIPLE_NAMES])
    x = np.concatenate([x, np.zeros_like(x[:1])])  # ZERO_SLOT
    values = {}
    for names, idx, signs in _LAYOUTS:
        dets = det_residues(x[idx], prime)
        values.update(zip(names, np.tensordot(signs, dets, axes=1) % prime))
    return {name: values[name] for name in GENERATOR_DETERMINANTS}


@lru_cache(maxsize=7)
def sampled_generator_values(seed: int, prime: int, trials: range) -> Mapping:
    """f1..f10, h and q mod p, a read-only map of read-only int64 arrays,
    at the batch point sample_point(TRIPLE_NAMES, seed, prime, trials),
    computed once per key, which is every input of the values, and shared
    by main-relation and theorem1, which draw the same points.  It holds
    generator values only.  maxsize 7 holds the chunks of verify all's main
    relation at the default protocol (five default primes, 5 and 7): at
    most 7 * 12 * verify.TRIAL_CHUNK int64s.  Above TRIAL_CHUNK trials the
    two identities share no values: main-relation fills 2 or more chunks on
    each of its 7 primes, and theorem1's lookups miss."""
    values = generator_values_mod(sample_point(TRIPLE_NAMES, seed, prime, trials), prime)
    for array in values.values():
        array.setflags(write=False)
    return MappingProxyType(values)


# The names GeneratorTable.by_name reads, in its order: f{i}{j}{k} and f{n} name
# one cubic, so name i < 20 is f[i // 2]; then h, q, H (HH) and Q (QQ).
GENERATOR_NAMES = tuple(
    name for n, (i, j, k) in enumerate(F_INDEX, start=1) for name in (f"f{i}{j}{k}", f"f{n}")
) + ("h", "q", "HH", "QQ")


@dataclass(frozen=True)
class GeneratorTable:
    """The named invariants of a triple as explicit polynomials.  f1..f10 are
    built with the table (generators_of); h and q (5748 terms in the generic
    triple, three 9x9 determinant sums) are built from the kept triple by
    determinant_sum on their first read, and H and Q (1152 and 9216 QQ
    terms) on theirs, so that a run that reads none of them, such as a
    modular one, builds none of them."""

    triple: MatrixTriple
    f: tuple  # f1..f10 in the fixed numbering

    @cached_property
    def h(self) -> Polynomial:
        """The t1^2 t2^2 t3^2 coefficient of det([[t2*A2, t1*A1], [t1*A1, t3*A3]])."""
        return determinant_sum(self.triple, "h")

    @cached_property
    def q(self) -> Polynomial:
        """The t1^2 t2 t3^2 t4 t5^2 t6 coefficient of
        det([[0, t1*A1, t2*A2], [t4*A1, 0, t3*A3], [t5*A2, t6*A3, 0]])."""
        return determinant_sum(self.triple, "q")

    @cached_property
    def H(self) -> Polynomial:
        return combine_correction(self.h, correction_factors(self.f, self.h), H_CORRECTIONS)

    @cached_property
    def Q(self) -> Polynomial:
        return combine_correction(self.q, correction_factors(self.f, self.h), Q_CORRECTIONS)

    def by_name(self, name: str) -> Polynomial:
        """The polynomial of one of GENERATOR_NAMES; only h, q, HH and QQ
        build h, q, H and Q."""
        i = GENERATOR_NAMES.index(name)
        return self.f[i // 2] if i < 20 else getattr(self, ("h", "q", "H", "Q")[i - 20])


def generators_of(T: MatrixTriple) -> GeneratorTable:
    """The named invariants of a triple in its variables: f1..f10 now, h, q,
    H and Q on first read."""
    return GeneratorTable(T, tuple(determinant_sum(T, name) for name in F_NAMES))


@lru_cache(maxsize=1)
def generator_table() -> GeneratorTable:
    """generators_of the generic triple, built once."""
    return generators_of(generic_triple())


# -- the right GL3 action -----------------------------------------------------


def act_on_function(g: Sequence[Sequence[int]], F: Polynomial, forms: Mapping | None = None) -> Polynomial:
    """g.F for an integer 3x3 matrix g: the function T -> F(T.g), where the
    right action gives T.g the components sum_r g[r][c] * A_r.  Each of the
    27 coordinates x{c}_ab is bound straight to its acted linear form
    sum_r g[r][c] * x{r}_ab over the variables of F, and F.substitute
    composes.  A coordinate that g fixes (column c of g is the unit vector
    e_c) is bound to itself, a one-term binding that substitute folds into
    each term's key, so a transvection I + E_ij leaves a Horner evaluation
    in the 9 coordinates of A_j only.  forms, if given, is acted_forms(g,
    F.vars), built once by a caller that acts with one g on many F."""
    return F.substitute(acted_forms(g, F.vars) if forms is None else forms)


def acted_forms(g: Sequence[Sequence[int]], vars: VariableSet) -> dict:
    """The 27 bindings of act_on_function for g over vars."""
    x = [Polynomial.variable(ZZ, vars, name) for name in TRIPLE_NAMES]

    def form(c: int, k: int) -> Polynomial:
        parts = [x[9 * r + k] * g[r][c] if g[r][c] != 1 else x[9 * r + k] for r in range(3) if g[r][c]]
        return reduce(Polynomial.__add__, parts) if parts else Polynomial.zero(ZZ, vars)

    return {TRIPLE_NAMES[9 * c + k]: form(c, k) for c in range(3) for k in range(9)}


def transvection(i: int, j: int) -> list:
    """I + E_ij as a plain scalar matrix."""
    g = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
    g[i - 1][j - 1] = 1
    return g


U12 = transvection(1, 2)
U23 = transvection(2, 3)
U21 = transvection(2, 1)
U32 = transvection(3, 2)
ELEMENTARY_TRANSVECTIONS = {"u12": U12, "u23": U23, "u21": U21, "u32": U32}


# -- classical cubic invariants through the coefficient dictionary ------------

CUBIC_NAMES = ("a", "a2", "a3", "b", "b1", "b3", "c", "c1", "c2", "m")
CUBIC_VARS = VariableSet(CUBIC_NAMES)

# f-variable -> (cubic coefficient, scale): f_n corresponds to scale * coeff.
_CUBIC_OF_F = {
    "f1": ("a", 1),
    "f2": ("a2", 3),
    "f3": ("a3", 3),
    "f4": ("b1", 3),
    "f5": ("m", 6),
    "f6": ("c1", 3),
    "f7": ("b", 1),
    "f8": ("b3", 3),
    "f9": ("c2", 3),
    "f10": ("c", 1),
}


def cubic_invariants_from_f_forms(s4_f: Polynomial, t6_f: Polynomial) -> tuple:
    """Rewrite the two derived f-ring invariants as the classical quartic and
    sextic invariants of a ternary cubic with coefficients
    (a, a2, a3, b, b1, b3, c, c1, c2, m)."""
    bindings = {
        fname: Polynomial.variable(QQ, CUBIC_VARS, cname) * scale
        for fname, (cname, scale) in _CUBIC_OF_F.items()
    }
    return s4_f.substitute(bindings), t6_f.substitute(bindings)
