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

Every derivation runs through one integer kernel, derivation_images: it
reads the cached exponent matrices of a stack of polynomials, forms all image
terms at once under mixed-radix int64 monomial keys, and adds up the terms
that share a monomial; its exactness argument (injective keys, overflow-free
sums, one common denominator) is written next to it.  The certificates ask
that every image coefficient be 0; solve_hwv_correction reads the same
images as one linear equation per distinct row.  The tests check it against
a term-by-term reference in tests/oracles.py.

The correction coefficients attached to h and q are recomputed here from
scratch by exact elimination on the derivation equations, in the bases of
products that generators.H_CORRECTIONS and Q_CORRECTIONS list, and the test
suite compares them against the coefficients of those tables.  For each
candidate beta the derivation equations hold iff the transvections fix the
corrected polynomial, so the solution set is that of the fixedness
equations.  Group substitution (generators.act_on_function) remains in the
verification of the induced f-span action, and in the tests as an
independent oracle (the diagonal-torus weight cross-check among them).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Sequence

import numpy as np

from . import generators as gen
from . import linalg
from .poly import _MAX_EXP, QQ, ZZ, Polynomial, PolyError, VariableMismatch

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
# derivation_images computes every image term of a stack of polynomials at once
# from their cached exponent matrices and adds up the terms that land on one
# monomial.  It is exact:
#
# * Keys.  A term's key is mixed-radix in its exponents, column j with radix
#   r_j = (column max) + 1, plus 1 when j is the src of some pair, and a last
#   digit, the index of its polynomial in the stack.  Every image exponent
#   lies in [0, r_j): dst columns only fall, and a src column rises by at
#   most 1.  So a key determines its monomial and polynomial, and an image
#   key is the base key + w[src] - w[dst].  The digits are cut into words
#   whose radix products, computed in Python ints, stay below 2**63, so no
#   key overflows int64; one lexsort over the words groups the terms (one
#   word for every polynomial the package certifies: radix 5 on 27 columns,
#   times at most 9 polynomials).
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

_WORD_LIMIT = 2**63


def _integer_coefficients(polys: Sequence[Polynomial]) -> list:
    """Each polynomial's coefficients, in the order of its terms, times the
    lcm of the stack's numerators() denominators."""
    forms = [p.numerators() for p in polys]
    den = lcm(*(L for L, _ in forms))
    return [nums if L == den else [n * (den // L) for n in nums] for L, nums in forms]


def _changes(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted keys that differ from the row before."""
    mask = np.ones(len(keys), dtype=bool)
    mask[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return mask


def derivation_images(polys: Sequence[Polynomial], derivations) -> list:
    """D(P) for every polynomial P of `polys` and every derivation D.

    A derivation is a pair (plus, minus) of (src, dst) name sequences and
    stands for sum(src * d/d dst over plus) - sum(src * d/d dst over minus).
    For each derivation the result is a (rows, len(polys)) integer matrix
    with one row per distinct image monomial, the monomials in increasing
    lexicographic order of their exponent vectors, and column k holding
    D(polys[k]) times the common denominator of the stack
    (_integer_coefficients).  A row is 0 where image terms cancel.
    The polynomials share one variable set.  An exponent of 255 raises
    PolyError, since an image exponent would then not fit the 8-bit fields of
    a Polynomial, and an unknown name raises VariableMismatch."""
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
    exps = np.concatenate([p.exponents() for p in polys])
    top = int(exps.max(initial=0))
    if top >= _MAX_EXP:
        raise PolyError(f"derivation exceeds the per-variable exponent bound {_MAX_EXP}")

    coeffs = _integer_coefficients(polys)
    largest = max((max(max(col), -min(col)) for col in coeffs if col), default=0)
    bound = max(max(map(len, signed), default=0) * top, 1) * largest
    dtype = np.int64 if bound < _WORD_LIMIT else object
    values = np.array(list(chain.from_iterable(coeffs)), dtype=dtype)

    # digits: the columns, then the index of the polynomial a term belongs to
    srcs = {src for moves in signed for src, _, _ in moves}
    radix = [int(m) + 1 + (j in srcs) for j, m in enumerate(exps.max(axis=0, initial=0))]
    radix.append(len(polys))
    places, word, span = [], 0, 1  # (word, weight) of each digit, last digit first
    for r in reversed(radix):
        if span * r >= _WORD_LIMIT:
            word, span = word + 1, 1
        places.append((word, span))
        span *= r
    weights = np.zeros((len(radix), word + 1), dtype=np.int64)
    for j, (w, v) in enumerate(reversed(places)):
        weights[j, w] = v
    owner = np.repeat(np.arange(len(polys)), [len(col) for col in coeffs])
    # one matrix-vector product per word: numpy's integer matmul is far slower
    # on a matrix than on a vector
    base = np.stack(
        [exps @ weights[:-1, w] + owner * weights[-1, w] for w in range(word + 1)], axis=1
    )
    # in key order, the image keys of one pair are a sorted run (a constant is
    # added to a subsequence), and lexsort merges sorted runs fast
    rank = np.lexsort(base.T)
    exps, values, base = exps[rank], values[rank], base[rank]

    out = []
    for moves in signed:
        keys, terms = [base[:0]], [values[:0]]
        for src, dst, sign in moves:
            rows = np.flatnonzero(exps[:, dst])
            keys.append(base[rows] + (weights[src] - weights[dst]))
            terms.append(values[rows] * (sign * exps[rows, dst].astype(np.int64)))
        keys, terms = np.concatenate(keys), np.concatenate(terms)
        # the highest word holds the first digits, and lexsort's last key is primary
        order = np.lexsort(keys.T)
        keys = keys[order]
        runs = np.flatnonzero(_changes(keys))
        sums = np.add.reduceat(terms[order], runs)
        # one key per (monomial, polynomial) run; the polynomial's digit is
        # the lowest of word 0, with weight 1
        keys = keys[runs]
        which = keys[:, 0] % len(polys)
        keys[:, 0] //= len(polys)
        new = _changes(keys)
        matrix = np.zeros((int(new.sum()), len(polys)), dtype=dtype)
        matrix[np.cumsum(new) - 1, which] = sums
        out.append(matrix)
    return out


def _killed_by(polys: Sequence[Polynomial], derivations) -> bool:
    """True iff every derivation, a (plus, minus) pair as in
    derivation_images, kills every polynomial of the stack: the image terms
    on each monomial sum to 0 in each column."""
    return not any(image.any() for image in derivation_images(polys, derivations))


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


def conjugation_invariance_certificate(F: Polynomial) -> bool:
    """Invariance under simultaneous conjugation (A, B) -> (g A g^-1, g B g^-1)
    of the pair in components 1 and 2: row_derivation(i, j) -
    column_derivation(i, j) kills F for E12, E23, E21, E32.

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
    return _killed_by([F], derivations)


# -- certificates for polynomials given in the f-variables ---------------------


@lru_cache(maxsize=None)
def _span_action_verified(which: str) -> dict:
    """Exact identities g.f_n = sum_m M[n][m] f_m for one transvection,
    verified by full expansion over the 27 coordinates before the induced
    f-ring substitution is trusted."""
    g = gen.ELEMENTARY_TRANSVECTIONS[which]
    table = gen.generator_table()
    mat = gen.f_action_matrix(g)
    for n in range(10):
        combo = sum((f * c for f, c in zip(table.f, mat[n])), Polynomial.zero(ZZ, gen.TRIPLE_VARS))
        if gen.act_on_function(g, table.f[n]) != combo:
            raise linalg.LinAlgError(
                f"span action of {which} failed exact verification"
            )
    return gen.f_span_substitution(g)


def sl3_certificate_for_f_polynomial(p_f: Polynomial) -> bool:
    """SL3-invariance certificate for a polynomial written in the f-variables.

    Because substitution is a ring homomorphism, equality of p_f with its
    image under the (exactly verified) induced span action implies the full
    27-variable fixedness identity, without expanding the composition."""
    p_f = p_f.to_ring(QQ)
    for which in gen.ELEMENTARY_TRANSVECTIONS:
        subst = _span_action_verified(which)
        if p_f.substitute(subst) != p_f:
            return False
    return True


# -- exact recomputation of the correction coefficients -------------------------


def solve_hwv_correction(base: Polynomial, basis: Sequence[Polynomial]) -> list:
    """Solve for the unique rational coefficients beta with base + sum(beta_i
    * basis_i) fixed by both elementary upper transvections, i.e. killed by
    D12 and D23.

    derivation_images gives, per derivation, one integer matrix with a row
    per image monomial and the columns D(base), D(basis_1), ...; a row r
    states sum(beta_i * r[i]) = -r[0].  The distinct rows of both matrices,
    in sorted order, are the whole system.

    Raises InconsistentSystem when no correction in the span works and
    UnderdeterminedSystem when several do.
    """
    base = base.convert(gen.TRIPLE_VARS)
    basis = [m.convert(gen.TRIPLE_VARS) for m in basis]
    md = multidegree(base)
    if md is None:
        raise linalg.LinAlgError("base is not multihomogeneous")
    for m in basis:
        if multidegree(m) != md:
            raise linalg.LinAlgError("basis element of different multidegree")
    derivations = [(block_derivation(i, j), ()) for i, j in UPPER_ROOTS]
    rows = np.concatenate(derivation_images([base, *basis], derivations))
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[_changes(rows)].tolist()
    if not basis:
        # no unknowns: the system is consistent iff every row is 0 = 0
        if any(rhs for rhs, in rows):
            raise InconsistentSystem("base is not fixed and no basis was given")
        return []
    return linalg.solve_unique([(row[1:], -row[0]) for row in rows], len(basis))


def h_correction_basis(table) -> list:
    """The products of gen.H_CORRECTIONS over a generator table, in ZZ."""
    return list(gen.correction_products(gen.H_CORRECTIONS, gen.correction_factors(table.f, table.h)))


def q_correction_basis(table) -> list:
    """The products of gen.Q_CORRECTIONS over a generator table, in ZZ."""
    return list(gen.correction_products(gen.Q_CORRECTIONS, gen.correction_factors(table.f, table.h)))


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
