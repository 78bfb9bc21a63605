"""Weight vectors, highest-weight certificates, and highest-weight corrections.

A polynomial in the 27 triple coordinates is a weight vector of weight alpha
iff it is multihomogeneous of multidegree alpha, its one degree vector under
generators.BLOCK_WEIGHTS; multidegree reads it.  Fixedness under the
elementary transvections is certified with Lie-algebra derivations instead of
group substitution, over the coefficient ring of F (ZZ for the generators;
QQ for the corrected H and Q, read as integer numerators over one common
denominator).  Both rings have characteristic 0, which the argument below
needs:

* The right action of I + t*E_ij adds t*A_i to A_j, and by Taylor expansion
  F(T.(I + t*E_ij)) = sum_k t^k/k! * D_ij^k F, where D_ij = sum_ab x{i}_ab
  d/dx{j}_ab.  D_ij is nilpotent on polynomials, so this is a polynomial in t.
* If F is fixed by I + E_ij, it is fixed by (I + E_ij)^n = I + n*E_ij for
  every integer n, so F(T.(I + t*E_ij)) - F is a polynomial in t with
  infinitely many roots.  In characteristic 0 it vanishes, and its t-linear
  coefficient D_ij F is 0.  Conversely D_ij F = 0 kills every term of the
  expansion.  So fixedness by I + E_ij is equivalent to D_ij F = 0.
* X -> D_X respects brackets up to sign, so the X with D_X F = 0 form a Lie
  subalgebra.  E12 and E23 generate the strictly upper triangular matrices
  (E13 = [E12, E23]), and E12, E23, E21, E32 generate sl3.  Killed by a
  generating set means killed by every D_ij with i != j, hence fixed by every
  root subgroup I + t*E_ij, and these generate the unipotent upper
  triangulars and SL3 respectively.

The same argument with row and column operations on each A_r certifies
invariance under SL3 x SL3 acting by (g, h).A = g A h^-1, and with the row
minus the column operation on the components of a pair, invariance under
simultaneous conjugation.

Every derivation runs through one integer kernel, derivation_stream: it
reads the cached exponent matrices of a stack of polynomials in place, keys
their terms once under poly.key_layout's bit-field monomial keys, built by
blocks of rows (poly.exponent_sums), and sorts the keys once.  Then, one
derivation at a time, it forms the image terms and adds up those that share
a monomial (poly.sum_by_key), by blocks: each block is a half-open range of
image keys, read from one contiguous slice of the sorted keys per (src, dst)
pair, so that no array of a block outgrows _BLOCK entries and no matrix of
the image is built.  Its exactness argument (injective keys, sums complete
within a block, overflow-free sums, one common denominator) is written next
to it.  derivation_images joins the blocks into one matrix per derivation.
The certificates ask that every image sum be 0, and read the stream block by
block: they keep no image and form no block after the first that is not 0.
solve_hwv_correction reads the images of two 15-variable slices as one
linear equation per distinct row.  The tests check the kernel against a
term-by-term reference in tests/oracles.py.

The correction coefficients attached to h and q are recomputed here from
scratch, in the bases of products that generators.H_CORRECTIONS and
Q_CORRECTIONS list, each product given by its factors and never multiplied
out in the 27 coordinates: solved on two slices, verified exactly in 27
coordinates.  The test suite compares them against the coefficients of those
tables.  The verified beta makes D12 and D23 kill the corrected polynomial,
so the transvections fix it; at the balanced weights (2,2,2) and (3,3,3) the
same check applies D21 and D32, and so certifies that H and Q are nonzero,
of their weight and SL3-invariant (an sl2 argument shows that this changes
no verdict).  The soundness argument, uniqueness and the sl2 argument
included, is at solve_hwv_correction.

A polynomial in f1..f10, such as the quartic and sextic invariants S and T,
is certified SL3-invariant by the derivations that the four transvections
induce on the f-ring (sl3_certificate_for_f_polynomial, one kernel call;
the argument is written there).  Group substitution
(generators.act_on_function, integer matrices only) remains only in the
check of the span action g.f_n = sum_m M[n][m] f_m that these derivations
are read from.  The tests keep an independent route as its oracle
(oracles.act_on_function: the generic triple acted on entry by entry,
composed term by term), which also serves the diagonal-torus weight
cross-check, and the f-ring substitution as the oracle of the derivations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from . import generators as gen
from . import linalg
from .poly import (
    _MAX_EXP, _WORD_LIMIT, QQ, ZZ, Polynomial, PolyError, VariableMismatch,
    changes, exponent_sums, key_layout, sum_by_key,
)

InconsistentSystem = linalg.InconsistentSystem
UnderdeterminedSystem = linalg.UnderdeterminedSystem


def multidegree(F: Polynomial) -> tuple | None:
    """Degree vector in the entries of (A1, A2, A3), the weight under the
    diagonal torus; None when the terms disagree or F is 0.  F's variables
    must include the 27 triple coordinates."""
    degrees = F.degrees(gen.BLOCK_WEIGHTS)
    return degrees.pop() if len(degrees) == 1 else None


# -- Lie-algebra derivations ----------------------------------------------------

# E12, E23, E21, E32 generate sl3 as a Lie algebra; E12, E23 generate the
# strictly upper triangular part, and E13 = [E12, E23].
UPPER_ROOTS = ((1, 2), (2, 3))
SL3_ROOTS = ((1, 2), (2, 3), (2, 1), (3, 2))


def block_derivation(i: int, j: int) -> tuple:
    """(src, dst) pairs of D_ij = sum_ab x{i}_ab d/dx{j}_ab, the t-derivative
    at 0 of F(T.(I + t*E_ij)): the right action adds t*A_i to A_j."""
    return tuple(
        (f"x{i}_{a}{b}", f"x{j}_{a}{b}") for a in (1, 2, 3) for b in (1, 2, 3)
    )


def row_derivation(i: int, j: int, components=(1, 2, 3)) -> tuple:
    """Left E_ij on each of the components: A_r -> (I + t*E_ij) A_r adds
    t * row j to row i."""
    return tuple(
        (f"x{r}_{j}{b}", f"x{r}_{i}{b}") for r in components for b in (1, 2, 3)
    )


def column_derivation(i: int, j: int, components=(1, 2, 3)) -> tuple:
    """Right E_ij on each of the components: A_r -> A_r (I + t*E_ij) adds
    t * column i to column j."""
    return tuple(
        (f"x{r}_{a}{i}", f"x{r}_{a}{j}") for r in components for a in (1, 2, 3)
    )


# -- the derivation kernel --------------------------------------------------------
#
# A derivation D = sum(src * d/d dst) over (src, dst) name pairs maps a term
# c * x^e to c * e_dst * x^(e + u_src - u_dst) for each pair with e_dst > 0.
# derivation_stream forms the image terms of a stack of polynomials from
# their cached exponent matrices, block by block, and adds up the terms that
# land on one monomial.  It is exact:
#
# * Keys.  A term's key is poly.key_layout's over its exponents and a last,
#   lowest digit, the index of its polynomial in the stack; the maximum of
#   column j is its max over the stack, plus 1 when j is the src of some
#   pair.  Every image exponent stays within it: dst columns only fall, and a
#   src column rises by at most 1.  So (key_layout's argument) a key
#   determines its monomial and polynomial, an image key is the base key +
#   delta, delta = places[src] - places[dst], and e_dst is the dst digit of
#   the base key.  The stacks the package certifies have exponents at most
#   2, so 2 bits on 27 columns, and int64 keys for up to 128 polynomials.
# * Blocks.  The base keys are sorted once.  The image keys of one pair are
#   then a sorted run, the base keys plus a constant delta, so the image
#   terms of a half-open key range [lo, hi) are, for each pair, read from one
#   contiguous slice of the sorted base, its keys in [lo - delta, hi - delta)
#   (searchsorted).  Equal keys are equal monomials of one polynomial, so all
#   the image terms of a monomial fall into the one range that holds its
#   key: each block's sums are complete, and the blocks, in increasing key
#   order, list the image in increasing key order, which is the
#   lexicographic order of the monomials.  The cuts are chosen among the
#   keys of every s-th base term, s = _BLOCK // (2 * pairs), shifted by each
#   pair's delta: from one such cut to the next each pair's slice gains at
#   most s terms, and each block ends at the furthest cut whose slices hold
#   at most _BLOCK base terms (at least one step), so with 2 * pairs <=
#   _BLOCK no array of a block outgrows _BLOCK entries.
# * Coefficients.  For one pair at most one term maps onto a given monomial
#   (x^e -> x^(e + u_src - u_dst) is injective), so every partial sum of a group
#   is bounded by (number of pairs) * (max exponent) * max|c|, and every
#   stored coefficient by max|c|.  When the larger bound, in Python ints, is
#   below 2**63 the sums run in int64; otherwise in Python ints (dtype
#   object).  Every value is an integer.
# * Rings.  Each polynomial's numerators(), ints over its own denominator
#   (1 over ZZ), are rescaled to one common denominator L of the stack:
#   D(L*P) = L*D(P), and one L for all of them turns base + sum(beta_i *
#   basis_i) into its L-multiple without rescaling the unknowns beta.  ZZ and
#   QQ both have characteristic 0, which the fixedness equivalences need.

# base terms in the slices of one block of derivation_stream: none of a
# block's int64 arrays takes more than 128 KiB
_BLOCK = 16384


def _integer_coefficients(polys: Sequence[Polynomial]) -> list:
    """Each polynomial's coefficients, in the order of its terms, times the
    lcm of the stack's numerators() denominators."""
    forms = [p.numerators() for p in polys]
    den = lcm(*(L for L, _ in forms))
    return [nums if L == den else [n * (den // L) for n in nums] for L, nums in forms]


def derivation_images(polys: Sequence[Polynomial], derivations) -> list:
    """D(P) for every polynomial P of `polys` and every derivation D: the
    blocks of derivation_stream, joined.

    A derivation is a pair (plus, minus) of (src, dst) name sequences and
    stands for sum(src * d/d dst over plus) - sum(src * d/d dst over minus).
    For each derivation the result is a (rows, len(polys)) integer matrix
    with one row per distinct image monomial, the monomials in increasing
    lexicographic order of their exponent vectors, and column k holding
    D(polys[k]) times the common denominator of the stack
    (_integer_coefficients).  A row is 0 where image terms cancel.
    The polynomials share one variable set.  An empty stack and an exponent
    of 255 raise PolyError, the latter since an image exponent would then
    not fit the 8-bit fields of a Polynomial, and an unknown name raises
    VariableMismatch."""
    stack = int(key_layout([len(polys) - 1])[1][0])  # the radix of the lowest digit, the polynomial's
    images = []
    for blocks in derivation_stream(polys, derivations):
        keys, sums = (np.concatenate(part) for part in zip(*blocks))
        which = (keys % stack).astype(np.intp)
        keys //= stack
        new = changes(keys[:, None])
        matrix = np.zeros((int(new.sum()), len(polys)), dtype=sums.dtype)
        matrix[np.cumsum(new) - 1, which] = sums
        images.append(matrix)
    return images


def derivation_stream(polys: Sequence[Polynomial], derivations):
    """Yield, one derivation at a time, an iterator over the blocks of its
    image: (keys, sums), the keys (kernel comment above) of the (monomial,
    polynomial) pairs on which image terms land, in increasing order, and
    their sums.  A block covers a half-open range of image keys, and the
    blocks come in increasing order.

    The set-up (keys, one sort of the stack) runs once, at the first
    request.  A block is formed only when it is read, so a reader that
    stops early forms no later block, and none keeps more than one block's
    arrays.  No exponent matrix is permuted or copied whole: each pair
    reads its dst exponents off the sorted keys."""
    if not polys:
        raise PolyError("derivation of an empty stack of polynomials")
    vars = polys[0].vars
    if any(p.vars != vars for p in polys):
        raise VariableMismatch("polynomials over different variable sets")
    signed = [
        [
            (vars.index(src), vars.index(dst), sign)
            for sign, pairs in ((1, plus), (-1, minus))
            for src, dst in pairs
        ]
        for plus, minus in derivations
    ]
    # column maxima of each polynomial's cached matrix, read in place
    tops = np.array([p.exponents().max(axis=0, initial=0) for p in polys])
    top = int(tops.max(initial=0))
    if top >= _MAX_EXP:
        raise PolyError(f"derivation exceeds the per-variable exponent bound {_MAX_EXP}")

    coeffs = _integer_coefficients(polys)
    largest = max((max(max(col), -min(col)) for col in coeffs if col), default=0)
    bound = max(max(map(len, signed), default=0) * top, 1) * largest
    dtype = np.int64 if bound < _WORD_LIMIT else object

    # digits: the columns, then the index of the polynomial a term belongs to
    srcs = {src for moves in signed for src, _, _ in moves}
    maxima = [int(m) + (j in srcs) for j, m in enumerate(tops.max(axis=0))]
    places, radices = key_layout(maxima + [len(polys) - 1])
    fields = places * (radices - 1)  # the bits of each digit's field
    keys = np.concatenate([exponent_sums(p.exponents(), places[:-1]) + k for k, p in enumerate(polys)])
    # stable, as in poly.sum_by_key
    rank = keys.argsort(kind="stable")
    keys = keys[rank]
    values = np.array(list(chain.from_iterable(coeffs)), dtype=dtype)[rank]
    del rank

    def blocks(moves):
        deltas = [places[src] - places[dst] for src, dst, _ in moves]
        # ends[c, p]: the end of pair p's slice below cut c; the first cut is
        # below every image key, the last above them all
        ends = np.zeros((1, len(moves)), np.intp)
        if moves:
            shifts = np.array(deltas, keys.dtype)
            cuts = np.sort((keys[:: max(1, _BLOCK // (2 * len(moves))), None] + shifts).ravel(), kind="stable")
            ends = np.concatenate([ends, np.searchsorted(keys, cuts[:, None] - shifts)])
        ends = np.concatenate([ends, np.full((1, len(moves)), len(keys))])
        loads = ends.sum(axis=1)
        start = 0
        while start < len(ends) - 1:
            stop = max(start + 1, int(np.searchsorted(loads, loads[start] + _BLOCK, "right")) - 1)
            image, terms = [keys[:0]], [values[:0]]
            for (src, dst, sign), delta, a, b in zip(moves, deltas, ends[start], ends[stop]):
                digits = keys[a:b] & fields[dst]
                rows = (digits != 0).nonzero()[0]
                image.append(keys[a:b][rows] + delta)
                terms.append(values[a:b][rows] * (digits[rows] // places[dst]))
                if sign < 0:
                    np.negative(terms[-1], out=terms[-1])
            # its stable sort merges the pairs' sorted runs fast
            image, terms = np.concatenate(image), np.concatenate(terms)
            image, sums = sum_by_key(image, terms)
            yield image, sums.astype(dtype, copy=False)
            start = stop

    for moves in signed:
        yield blocks(moves)


def _killed_by(polys: Sequence[Polynomial], derivations) -> bool:
    """True iff every derivation, a (plus, minus) pair as in
    derivation_images, kills every polynomial of the stack: the image terms
    on each monomial sum to 0 in each column.  The blocks are streamed and
    the first nonzero one decides: no later block, of this derivation or a
    later one, is formed."""
    return not any(sums.any() for blocks in derivation_stream(polys, derivations) for _, sums in blocks)


def is_fixed_by_unipotents(F: Polynomial) -> bool:
    """Highest-weight certificate: D12 F = D23 F = 0.

    Then D13 F = 0 too, since D13 = [D12, D23] up to sign, so F is fixed by
    every root subgroup I + t*E_ij with i < j; these generate the unipotent
    upper triangulars.  Together with being a weight vector this makes F a
    highest weight vector."""
    return _killed_by([F], [(block_derivation(i, j), ()) for i, j in UPPER_ROOTS])


def sl3_invariance_certificate(F: Polynomial) -> bool:
    """SL3-invariance certificate: D12, D23, D21 and D32 kill F.

    These four generate sl3, so every D_ij (i != j) kills F, F is fixed by
    every root subgroup I + t*E_ij, and the root subgroups generate SL3."""
    return _killed_by([F], [(block_derivation(i, j), ()) for i, j in SL3_ROOTS])


def sl3_sl3_invariance_certificate(*polys: Polynomial) -> bool:
    """Invariance under (g, h).A = g A h^-1 on every component: the row and
    column derivations of E12, E23, E21, E32 all kill each of the polynomials
    (same argument as sl3_invariance_certificate, once for each factor).  The
    polynomials are certified as one stack, one kernel call: a column of an
    image matrix is the image of one polynomial, so the stack passes iff
    every member does."""
    derivations = [(row_derivation(i, j), ()) for i, j in SL3_ROOTS]
    derivations += [(column_derivation(i, j), ()) for i, j in SL3_ROOTS]
    return _killed_by(polys, derivations)


def conjugation_invariance_certificate(*polys: Polynomial) -> bool:
    """Invariance under simultaneous conjugation (A, B) -> (g A g^-1, g B g^-1)
    of the pair in components 1 and 2: row_derivation(i, j) -
    column_derivation(i, j) kills each of the polynomials for E12, E23, E21,
    E32, certified as one stack in one kernel call, as in
    sl3_sl3_invariance_certificate.

    The t-derivative at 0 of (I + t*E_ij) A (I + t*E_ij)^-1 = (I + t*E_ij) A
    (I - t*E_ij) is E_ij A - A E_ij, whose derivation on F is the row minus
    the column derivation.  As in sl3_invariance_certificate these four
    generate sl3, so F is fixed by every root subgroup and invariant under
    SL3.  Scalars conjugate trivially and GL3 = scalars * SL3 over an
    algebraically closed field, so F is invariant under GL3 conjugation."""
    derivations = [
        (row_derivation(i, j, (1, 2)), column_derivation(i, j, (1, 2)))
        for i, j in SL3_ROOTS
    ]
    return _killed_by(polys, derivations)


# -- certificates for polynomials given in the f-variables ---------------------


def _matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _nilpotent_log(mat: list) -> list:
    """log M = sum_k (-1)^(k+1) (M - I)^k / k for a square matrix M with
    M - I nilpotent, a finite sum; LinAlgError when M - I is not nilpotent
    ((M - I)^n != 0 for n = the size of M).  The sum runs in ints scaled by
    S = lcm(1..n), each power weighted by the int S/k, and each entry is
    divided once, by S, into a Fraction."""
    n = len(mat)
    S = lcm(*range(1, n + 1))
    a = [[mat[r][c] - (r == c) for c in range(n)] for r in range(n)]
    log, power = [[0] * n for _ in range(n)], a
    for k in range(1, n + 1):
        if not any(map(any, power)):
            return [[Fraction(x, S) for x in row] for row in log]
        w = (-1) ** (k + 1) * (S // k)
        log = [[x + w * y for x, y in zip(lr, pr)] for lr, pr in zip(log, power)]
        power = _matmul(power, a)
    raise linalg.LinAlgError("M - I is not nilpotent")


@lru_cache(maxsize=None)
def _span_action_verified(which: str) -> tuple:
    """The f-ring derivation induced by one transvection g, as a (plus,
    minus) pair of derivation_stream, after two exact checks.

    * g.f_n = sum_m M[n][m] f_m, M = gen.f_action_matrix(g), by full
      expansion over the 27 coordinates (gen.act_on_function), each bound
      to its acted linear form (gen.acted_forms, built once for the ten).
      g = I + E_ij moves only the 9 coordinates of A_j; the other 18 are
      bound to themselves, and substitute folds them into keys, so the
      expansion is a Horner evaluation in A_j's coordinates alone, and still
      the whole of g.f_n.
    * M = exp(N) for N = log M (_nilpotent_log, in ints over one common
      denominator): M - I is nilpotent, N is an integer matrix, and
      6M = 6I + 6N + 3N^2 + N^3 in integers, so N^4 adds nothing.

    N is the pencil's t_j d/dt_i for g = I + E_ij.  The derivation is
    delta_N = sum N[n][m] f_m d/df_n: N[n][m] copies of the pair (f_m, f_n),
    in plus for a positive entry and in minus for a negative one.  Any
    failed check raises LinAlgError."""
    g = gen.ELEMENTARY_TRANSVECTIONS[which]
    table = gen.generator_table()
    mat = gen.f_action_matrix(g)
    forms = gen.acted_forms(g, gen.TRIPLE_VARS)
    for n in range(10):
        combo = sum((f * c for f, c in zip(table.f, mat[n]) if c), Polynomial.zero(ZZ, gen.TRIPLE_VARS))
        if gen.act_on_function(g, table.f[n], forms) != combo:
            raise linalg.LinAlgError(
                f"span action of {which} failed exact verification"
            )
    N = _nilpotent_log(mat)
    if any(x.denominator != 1 for row in N for x in row):
        raise linalg.LinAlgError(f"the log of the span action of {which} is not integral")
    N = [[int(x) for x in row] for row in N]
    N2 = _matmul(N, N)
    N3 = _matmul(N2, N)
    entries = [(n, m) for n in range(10) for m in range(10)]
    if any(6 * mat[n][m] != 6 * (n == m) + 6 * N[n][m] + 3 * N2[n][m] + N3[n][m] for n, m in entries):
        raise linalg.LinAlgError(f"the span action of {which} is not the exp of its log")
    return tuple(
        tuple((gen.F_NAMES[m], gen.F_NAMES[n]) for n, m in entries for _ in range(sign * N[n][m]))
        for sign in (1, -1)
    )


def sl3_certificate_for_f_polynomial(p_f: Polynomial) -> bool:
    """SL3-invariance certificate for a polynomial written in the f-variables:
    the four derivations of _span_action_verified kill p_f, in one kernel
    call (_killed_by).

    Soundness, over QQ (characteristic 0).  Let P = p_f(f1, ..., f10) in the
    27 coordinates, g one of the four transvections and M, N its verified
    matrices.  Substitution is a ring homomorphism, so g.P = p_f(g.f) =
    p_f(M f), and p_f(M y) = p_f(y) in the f-ring gives g.P = P; fixedness
    by I + E12, I + E23, I + E21 and I + E32 gives SL3-invariance as in the
    module docstring.  The derivation decides p_f(M y) = p_f(y) exactly:

    * if p(My) = p(y), then p(M^k y) = p(y) for every k >= 0, and M^k =
      exp(kN); N is nilpotent, so q(t) = p(exp(tN) y) - p(y) is a
      polynomial in t with infinitely many roots, hence 0, and so is its
      t-derivative at 0, delta_N p (the chain rule: d/dt p(exp(tN) y) =
      (delta_N p)(exp(tN) y));
    * if delta_N p = 0, then q'(t) = (delta_N p)(exp(tN) y) = 0 for every
      t, so q is constant, q(1) = q(0) = 0 and p(My) = p(y).

    So the verdict is that of the group substitution p_f(M y) == p_f(y),
    which tests/oracles.py keeps as f_span_substitution."""
    return _killed_by([p_f], [_span_action_verified(which) for which in gen.ELEMENTARY_TRANSVECTIONS])


# -- exact recomputation of the correction coefficients -------------------------


# The correction solve takes its equations on one slice per upper root (i, j):
# every component but A_j is diagonal (its off-diagonal entries are 0), so 15
# coordinates remain, and D_ij keeps its three diagonal pairs there.
def _root_slice(i: int, j: int) -> tuple:
    """(zeros, pairs): the restriction to the slice of root (i, j), and D_ij's
    (src, dst) pairs on it."""
    zeros = {
        f"x{r}_{a}{b}": 0
        for r in (1, 2, 3) if r != j
        for a in (1, 2, 3) for b in (1, 2, 3) if a != b
    }
    return zeros, tuple((f"x{i}_{a}{a}", f"x{j}_{a}{a}") for a in (1, 2, 3))


CORRECTION_SLICES = tuple(_root_slice(i, j) for i, j in UPPER_ROOTS)


def _factors(element) -> tuple:
    """A basis element as the tuple of its factors: a Polynomial is a
    product of one factor."""
    return (element,) if isinstance(element, Polynomial) else tuple(element)


def _product_multidegree(factors: Sequence[Polynomial], what: str) -> tuple:
    """The multidegree of a product, the sum of its factors' multidegrees
    (Q[x] is a domain, so the product of nonzero multihomogeneous factors is
    nonzero and multihomogeneous); LinAlgError naming `what` when the product
    is zero or not multihomogeneous."""
    if any(p.is_zero() for p in factors):
        raise linalg.LinAlgError(f"{what} is zero")
    degrees = [multidegree(p) for p in factors]
    if None in degrees:
        raise linalg.LinAlgError(f"{what} is not multihomogeneous")
    return tuple(map(sum, zip(*degrees)))


def solve_hwv_correction(base: Polynomial, basis: Sequence) -> list:
    """Solve for the unique rational coefficients beta with base + sum(beta_i
    * basis_i) fixed by both elementary upper transvections, i.e. killed by
    D12 and D23.

    A basis element is a product given by its factors, a sequence of
    polynomials; a lone Polynomial is a product of one factor.  Base and
    every element must be nonzero and multihomogeneous of one multidegree
    (a product's is the sum of its factors'), or LinAlgError names the
    element and the case.  No product of all of an element's factors is
    formed in the 27 coordinates.

    Equations from two slices: base and basis are restricted to the slice of
    each upper root (CORRECTION_SLICES; x1_ab = x3_ab = 0 for a != b for D12,
    x1_ab = x2_ab = 0 for D23), a product as the product of its restricted
    factors, and derivation_images gives, per slice, one integer matrix with
    a row per image monomial and the columns D(base), D(basis_1), ...; a row
    r states sum(beta_i * r[i]) = -r[0].  The distinct rows of both
    matrices, in sorted order, go to linalg.solve_unique (6 rows for h, 25
    for q).  The solution is then checked exactly on the one corrected
    polynomial d*base + sum((d*beta_i) * basis_i) in all 27 coordinates, d
    the lcm of beta's denominators, built by gen.correction_sum, the sum
    that gen.combine_correction builds (over ZZ when the inputs are): its
    multidegree must be the base's, so it is not 0, or LinAlgError; and
    D12 and D23 must kill it, together with D21 and D32 when the
    multidegree is balanced, (k, k, k), in one streamed kernel call, or
    InconsistentSystem.  An empty basis checks base.

    Soundness, with no probabilistic step:

    * Restriction is a ring homomorphism, so a product restricts to the
      product of its restricted factors.  A slice fixes no dst variable of
      its derivation (A_j stays whole), and each src it fixes is set to 0,
      which kills that pair's terms.  So the restriction of D_ij(P) is the
      slice derivation of the restricted P, and every solution of the full
      equations solves the slice equations.
    * So an inconsistent slice system means an inconsistent full one.  When
      the slice system has rank n = len(basis), the full system has at most
      its one solution beta, and the exact check decides whether beta is
      one: the check passes iff beta is the unique full solution.
    * Rank.  D_ij commutes with the action of SL3 x SL3 on every component,
      so for SL3 x SL3-invariant base and basis (h, q and the correction
      products) every sum(gamma_i * D_ij(basis_i)) is invariant.  An
      invariant that vanishes on a slice is 0: on a dense set some (g, h)
      takes the triple to one with A_i = mu*I and, after a conjugation that
      fixes mu*I, the third component diagonal (the density argument at
      relations.TRIPLE_SLICE).  So the slice rank is the full rank, and
      UnderdeterminedSystem is faithful for such inputs; for other inputs it
      means that the slice equations leave several solutions.
    * D21 and D32 change no verdict at weight (k, k, k), so the check
      certifies SL3-invariance (sl3_invariance_certificate) at no cost to
      the contract.  Coordinate by coordinate [x1 d/dx2, x2 d/dx1] = x1
      d/dx1 - x2 d/dx2, so e = D12, f = D21 and h = D11 - D22 satisfy
      [e, f] = h, [h, e] = 2e and [h, f] = -2f: an sl2-triple acting on the
      finite-dimensional space of polynomials of total degree 3k.  D_ii is
      the Euler operator of the block A_i, so h multiplies F of multidegree
      (k, k, k) by k - k = 0.  In a finite-dimensional sl2-module over a
      field of characteristic 0 a vector with e v = 0 and h v = 0 has
      f v = 0 (f v would have e f v = h v = 0 and weight -2, a highest
      weight below 0).  So D12 F = 0 gives D21 F = 0, and likewise D23 F = 0
      gives D32 F = 0.  Unbalanced inputs such as det(A1), of weight
      (3, 0, 0), keep the upper roots alone.

    Raises InconsistentSystem when no correction in the span works and
    UnderdeterminedSystem when several do.
    """
    base = base.convert(gen.TRIPLE_VARS)
    basis = [tuple(p.convert(gen.TRIPLE_VARS) for p in _factors(m)) for m in basis]
    md = _product_multidegree((base,), "base")
    for i, factors in enumerate(basis):
        other = _product_multidegree(factors, f"basis element {i}")
        if other != md:
            raise linalg.LinAlgError(f"basis element {i} has multidegree {other}, not the base's {md}")
    beta = []
    if basis:
        images = [
            derivation_images(
                [base.restrict(zeros)]
                + [reduce(Polynomial.mul, [p.restrict(zeros) for p in factors]) for factors in basis],
                [(pairs, ())],
            )[0]
            for zeros, pairs in CORRECTION_SLICES
        ]
        rows = np.concatenate(images)
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[changes(rows)].tolist()
        beta = linalg.solve_unique([(row[1:], -row[0]) for row in rows], len(basis))
    d = lcm(*(b.denominator for b in beta))
    ring = ZZ if all(p.ring == ZZ for p in chain((base,), *basis)) else QQ
    corrected = gen.correction_sum(
        ring, gen.TRIPLE_VARS, [(d, (base,)), *((d * b, factors) for b, factors in zip(beta, basis))]
    )
    if multidegree(corrected) != md:
        raise linalg.LinAlgError(f"the corrected polynomial is not of the base's multidegree {md}")
    # the certificates' kernel call, not sl3_invariance_certificate itself,
    # which benchmark/tracing.py counts as a certificate of its own
    roots = SL3_ROOTS if len(set(md)) == 1 else UPPER_ROOTS
    if not _killed_by([corrected], [(block_derivation(i, j), ()) for i, j in roots]):
        raise InconsistentSystem("the corrected polynomial is not fixed in all 27 coordinates")
    return beta


def _correction_basis(table, corrections) -> list:
    factors = gen.correction_factors(table.f, table.h)
    return [tuple(factors[k] for k in keys) for _, keys in corrections]


def h_correction_basis(table) -> list:
    """The products of gen.H_CORRECTIONS over a generator table, each as its
    tuple of factors, in ZZ."""
    return _correction_basis(table, gen.H_CORRECTIONS)


def q_correction_basis(table) -> list:
    """The products of gen.Q_CORRECTIONS over a generator table, each as its
    tuple of factors, in ZZ."""
    return _correction_basis(table, gen.Q_CORRECTIONS)


@lru_cache(maxsize=1)
def solve_h_correction() -> list:
    """Coefficients on the products of gen.H_CORRECTIONS making h highest
    weight."""
    table = gen.generator_table()
    return solve_hwv_correction(table.h, h_correction_basis(table))


@lru_cache(maxsize=1)
def solve_q_correction() -> list:
    """Coefficients on the products of gen.Q_CORRECTIONS making q highest
    weight."""
    table = gen.generator_table()
    return solve_hwv_correction(table.q, q_correction_basis(table))
