"""Modular evaluation of polynomials, determinants and compositions for
identity testing.

Identities too large to expand symbolically are checked by evaluating both
sides at random points over prime fields.  A nonzero polynomial of total
degree d vanishes at a uniformly random point of Z_p^n with probability at
most d/p (Schwartz-Zippel), so N independent points bound the chance of a
missed nonzero identity by (d/p)^N per prime.  This module is the only
modular arithmetic in the package: polynomials carry ZZ or QQ coefficients,
which poly_eval_mod reads through their cached exponents() and numerators()
and reduces mod p here.  Linear algebra mod p works on whole stacks of
integer matrices, batch-last, through one division-free elimination step,
_eliminate_column, whose docstring gives its argument and int64 bounds:
det_residues takes determinants of matrices that share all but three rows
with it (by Leibniz on the rest), and echelon_mod takes ranks and the row
order that its swaps apply.  The one production caller of det_residues is
generators.generator_values_mod; the tests reach it from integer matrices
through oracles.det_mod.

Points are drawn from a counter-based SHA-256 stream keyed by
(seed, prime, trial), so a point does not depend on the batch it is evaluated
in and any trial can be reproduced in isolation.  A point's values may be ints
(of any size: residues reduces them before they become int64) or equal-length
int64 arrays; an array holds one value per trial of a batch, as
sample_point draws it for a range of trials, and numpy broadcasting carries
the batch through a composition.  A
composition's eval_mod evaluates its leaf polynomials at a given point;
eval_sampled evaluates it at the batch point of (seed, prime, range of
trials), and a composition with a Definition takes the leaf values and
degree bounds there from the definition: the generators of the triple
identities come from the determinant table that defines them
(generators.GENERATOR_DETERMINANTS, read by generator_values_mod), never
from their expansions.  Since a batch point is a function of that key
alone, a Definition may remember the leaf values of a batch by it: the key
is every input of the values, and the outer polynomial, the identity
itself, is evaluated on every call.
"""

from __future__ import annotations

import hashlib
import struct
from functools import cached_property
from math import gcd
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, PolyError, VariableMismatch, VariableSet

DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)
SMALL_CHAR_PRIMES = (5, 7)

_PRIME_LIMIT = 2**31


class DenominatorNotInvertible(PolyError):
    """A rational coefficient has no value mod the prime: p divides its
    denominator."""


def _is_prime_u32(n: int) -> bool:
    # deterministic Miller-Rabin; bases {2,3,5,7} suffice below 3215031751
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate a verification prime: odd, < 2**31 and prime.  What a small
    prime allows follows from the identity: a denominator it divides is a
    DenominatorNotInvertible, and p <= degree bounds nothing."""
    if p % 2 == 0 or p >= _PRIME_LIMIT or not _is_prime_u32(p):
        raise PolyError(f"{p} is not an odd prime below 2**31")
    return p


_DIGEST_WORDS = struct.Struct(">4Q")


def _word_limit(prime: int) -> int:
    """The largest multiple of p under 2**64: a word below it gives a value."""
    return (2**64 // prime) * prime


def sample_point(names: Sequence[str], seed: int, prime: int, trial: int | range) -> dict:
    """Deterministic uniform point in Z_p^n keyed by (seed, prime, trial).

    The stream is SHA-256 of "semiinv-v1|seed|prime|trial|counter" for
    counter = 0, 1, ...; each digest is read as four big-endian 64-bit words,
    and a word below the largest multiple of p under 2**64 gives the next
    value, w mod p (rejection keeps the values uniform).

    For an int trial the point is a dict of ints.  For a range of trials it
    is the batch point of those trials, one int64 array per name whose entry
    k is the value of trial[k]'s point: the first ceil(n/4) digests of every
    trial are read at once, and a trial that rejects one of its first n words
    is drawn again from its own stream, so each entry equals the int drawn
    for that trial alone."""
    if not isinstance(trial, range):
        return dict(zip(names, _trial_values(len(names), seed, prime, trial)))
    n, limit = len(names), _word_limit(prime)
    counters = [str(c).encode() for c in range(-(-n // 4))]  # ceil(n/4) digests
    digests = []
    for t in trial:
        prefix = hashlib.sha256(f"semiinv-v1|{seed}|{prime}|{t}|".encode())
        for counter in counters:
            digest = prefix.copy()
            digest.update(counter)
            digests.append(digest.digest())
    words = np.frombuffer(b"".join(digests), dtype=">u8")
    words = words.reshape(len(trial), 4 * len(counters))[:, :n]
    values = np.array((words % np.uint64(prime)).T, dtype=np.int64, order="C")
    for row in np.flatnonzero((words >= np.uint64(limit)).any(axis=1)).tolist():
        values[:, row] = _trial_values(n, seed, prime, trial[row])
    return dict(zip(names, values))


def _trial_values(n: int, seed: int, prime: int, trial: int) -> list:
    """The first n values of trial's stream, word by word."""
    prefix = hashlib.sha256(f"semiinv-v1|{seed}|{prime}|{trial}|".encode())
    limit = _word_limit(prime)
    values = []
    counter = 0
    while len(values) < n:
        digest = prefix.copy()
        digest.update(str(counter).encode())
        counter += 1
        for w in _DIGEST_WORDS.unpack(digest.digest()):
            if w < limit:
                values.append(w % prime)
                if len(values) == n:
                    break
    return values


def residues(values, prime: int) -> np.ndarray:
    """values mod p as an int64 array of the same shape, entries in [0, p).
    A numpy integer array or scalar is reduced as it is; a Python int or a
    nested list of ints is reduced over the Python integers first, so a
    value outside int64, 2**64 or -2**70 say, has its residue like any
    other.  Any other value (a float, a Fraction, a str) is a PolyError."""
    if not (isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind in "iu"):
        values = np.array(values, dtype=object)
        for kind in set(map(type, values.flat)):
            if not issubclass(kind, (int, np.integer)):
                raise PolyError(f"a point value must be an integer, not {kind.__name__}")
        values = values % prime
    return np.asarray(values % prime, dtype=np.int64)


# -- vectorized polynomial evaluation over Z_p ------------------------------


def poly_eval_mod(p: Polynomial, point: Mapping[str, int], prime: int):
    """Value of p at the point over Z_p, from p.exponents() and
    p.numerators() = (L, nums): the coefficients mod p are residues(nums)
    times L^-1, one inverse per call.  p divides L iff it divides some
    denominator; DenominatorNotInvertible then names the smallest such
    denominator, which does not depend on the order of the terms.

    A value of the point may be an int or an int64 array of shape (B,), one
    entry per trial of a batch; the result is then an int64 array of shape
    (B,), else an int.  The accumulator holds one row per term (the batch
    after it), and each used variable's powers multiply only the rows of
    the terms whose exponent of it is nonzero, which is the same product
    as multiplying the others by its power 0, 1.  Every entry lies in
    [0, p) with p < 2**31, so each product of two entries is below 2**62,
    and the sum over the terms (at most 2**32 of them, each below 2**31)
    stays below 2**63: nothing overflows int64 before its reduction."""
    L, nums = p.numerators()
    if not nums:
        return 0
    if L % prime == 0:
        den = min(d for d in (L // gcd(n, L) for n in nums) if d % prime == 0)
        raise DenominatorNotInvertible(f"denominator {den} not invertible mod {prime}")
    exps = p.exponents()
    used = np.flatnonzero(exps.any(axis=0)).tolist()
    values = []
    for i in used:
        name = p.vars.names[i]
        if name not in point:
            raise PolyError(f"missing binding for {name!r}")
        values.append(residues(point[name], prime))
    batch = np.broadcast_shapes(*(v.shape for v in values))
    # acc has the terms on its first axis and the batch, if any, after them
    acc = np.empty((len(nums),) + batch, dtype=np.int64)
    acc.T[...] = residues(nums, prime) * pow(L, -1, prime) % prime
    for i, v in zip(used, values):
        col = exps[:, i]
        rows = np.flatnonzero(col)
        table = np.empty((int(col[rows].max()) + 1,) + batch, dtype=np.int64)
        table[0] = 1
        for e in range(1, len(table)):
            table[e] = table[e - 1] * v % prime
        factor = acc[rows]  # a copy, multiplied and reduced in place
        factor *= table[col[rows]]
        factor %= prime
        acc[rows] = factor
    total = acc.sum(axis=0) % prime
    return int(total) if total.ndim == 0 else total


# -- linear algebra over Z_p ----------------------------------------------------


def _inverse_mod(a: np.ndarray, prime: int) -> np.ndarray:
    """a^(p-2) mod p entrywise, by square and multiply: the inverse of every
    nonzero entry (Fermat), and 0 for 0."""
    result = np.ones_like(a)
    e = prime - 2
    while e:
        if e & 1:
            result = result * a % prime
        a = a * a % prime
        e >>= 1
    return result


_NO_SWAP = (np.zeros(0, dtype=np.intp), np.zeros((2, 0), dtype=np.intp))
_PAIR = np.array([[0], [1]])


def _eliminate_column(m: np.ndarray, k: int, prime: int, rows: int) -> tuple:
    """Step k of the package's one elimination mod p, division-free and in
    place, on an (r, cols, B) stack of residues in [0, p), p < 2**31,
    batch-last (entry (i, j) is one contiguous row over the B matrices),
    whose rows k.. earlier steps left 0 in the columns before k.  Only the
    rows k..rows-1 may give a pivot; every row below k is eliminated.

    Each matrix takes its own pivot, the first nonzero entry of column k in
    those rows, and swaps its row with row k; a matrix with none there first
    swaps column k with the first later column that has one.  Every row i
    below k then becomes pivot*row_i + (p - a_ik)*row_k in the columns after
    k, clearing a_ik.  Both products lie in [0, 2**62), their sum in
    [0, 2**63), and one reduction brings it back into [0, p).  Sound for
    every odd prime: swaps keep the rank and negate the determinant;
    scaling a row by a nonzero pivot keeps the rank and multiplies the
    determinant by it; adding a multiple of row k keeps both.  A pivot stays
    0 only where the rows k..rows-1 are 0 in the columns k.., which the step
    leaves 0.  Returns the matrices whose row k was swapped, a (2, swapped)
    array of the two rows, and the matrices whose column k was swapped; the
    pivots are m[k, k], which no later step writes."""
    (swapped, pairs), moved = _NO_SWAP, _NO_SWAP[0]
    if not m[k, k].all():
        if not m[k:rows, k].any(axis=0).all():
            first = m[k:rows, k:].any(axis=0).argmax(axis=0)  # 0 if column k has a pivot, or none does
            moved = first.nonzero()[0]
            cols = k + _PAIR * first[moved]
            m[:, cols, moved] = m[:, cols[::-1], moved]
        below = (m[k:rows, k] != 0).argmax(axis=0)  # 0 where the pivot is in place, or there is none
        swapped = below.nonzero()[0]
        pairs = k + _PAIR * below[swapped]
        m[pairs, :, swapped] = m[pairs[::-1], :, swapped]
    rest = m[k + 1 :, k + 1 :]
    rest *= m[k, k]
    rest += (prime - m[k + 1 :, k, None]) * m[k, k + 1 :]
    rest %= prime
    return swapped, pairs, moved


def det_residues(m: np.ndarray, prime: int) -> np.ndarray:
    """Determinants mod p of count n x n matrices that share all rows but
    their first o = min(n, 3), from residues in [0, p), p < 2**31, laid out
    batch-last as the s = n - o shared rows and then each matrix's o own
    rows: shape (s + count*o, n, ...) -> (count, ...), a lone matrix being
    count = 1.  For s > 0 it overwrites the stack, so pass one you own.

    The shared rows are eliminated once, by s steps of _eliminate_column
    that take pivots from them only.  A step adds multiples of a shared row
    to the rows below it, scales those rows by the pivot and swaps shared
    rows or columns, so it does the same to every matrix [shared; own]: a
    swap negates each determinant, and step k scales n-k-1 rows of each by
    pivot_k.  Each matrix ends block triangular, with L the determinant of
    its own rows in the last o columns, so, as o = 3 where s > 0,
        det = (-1)^swaps * prod_k pivot_k * L / prod_k pivot_k^(n-k-1)
            = (-1)^swaps * L / prod_k pivot_k^(s-k+1),
    whose denominator, prod_k (pivot_0 * ... * pivot_k) times every pivot,
    is inverted once, by Fermat.  Shared rows with no pivot are dependent
    mod p: every matrix is singular, and the inverse, 0, gives 0."""
    n, shape = m.shape[1], m.shape[2:]
    shared, own = max(n - 3, 0), min(n, 3)
    m = np.ascontiguousarray(m).reshape(len(m), n, -1)
    sign, pivots, scale = np.ones((3, m.shape[-1]), dtype=np.int64)
    for k in range(shared):
        swapped, _, moved = _eliminate_column(m, k, prime, shared)
        sign[swapped] *= -1
        sign[moved] *= -1
        pivots = pivots * m[k, k] % prime
        scale = scale * pivots % prime
    block = m[shared:, shared:].reshape(-1, own, own, m.shape[-1])
    dets = _leibniz_mod(np.moveaxis(block, 0, 2), prime)
    if shared:
        dets = dets * (sign * _inverse_mod(scale * pivots % prime, prime)) % prime
    return dets.reshape(dets.shape[:1] + shape)


def echelon_mod(rows, prime: int) -> tuple:
    """Rank mod p of a stack of r x c integer matrices, shape (..., r, c),
    with the row order that the elimination's swaps applied and its sign:
    (rank (...), order (..., r), sign (...)), the entries reduced by
    residues.  Each of its min(r, c) steps of _eliminate_column finds a
    nonzero pivot unless the rows k.. are 0, so the rank is the number of
    nonzero pivots.  Column swaps are not reported; a square matrix of full
    rank mod p needs none, and then every leading principal minor of
    rows[order] is nonzero mod p and det(rows[order]) = sign * det(rows).
    Soundness over Q: a nonzero minor mod p is a nonzero integer minor, so
    the rank over Q of an integer matrix is at least its rank mod p.  Full
    rank mod p proves full rank over Q; a deficit mod p proves nothing."""
    rows = residues(rows, prime)
    *shape, r, c = rows.shape
    m = np.ascontiguousarray(rows.reshape(-1, r, c).transpose(1, 2, 0))
    order = np.repeat(np.arange(r)[:, None], m.shape[-1], axis=1)
    sign = np.ones(m.shape[-1], dtype=np.int64)
    for k in range(min(r, c)):
        swapped, pairs, _ = _eliminate_column(m, k, prime, r)
        order[pairs, swapped] = order[pairs[::-1], swapped]
        sign[swapped] *= -1
    rank = np.count_nonzero(m[range(min(r, c)), range(min(r, c))], axis=0)
    return rank.reshape(shape), order.T.reshape(*shape, r), sign.reshape(shape)


def _leibniz_mod(m: np.ndarray, prime: int) -> np.ndarray:
    """Determinants of an (n, n, ...) stack of residues, n <= 3, along the
    first row: each 2 x 2 minor lies in (-2**62, 2**62) and is reduced once,
    then a*m0 - b*m1 + c*m2 lies in (-2**62, 2**63) and is reduced once."""
    if len(m) == 1:
        return m[0, 0]
    if len(m) == 2:
        return (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % prime
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        a * ((e * i - f * h) % prime)
        - b * ((d * i - f * g) % prime)
        + c * ((d * h - e * g) % prime)
    ) % prime


# -- identities: an outer polynomial at named leaf polynomials ---------------


class Definition(NamedTuple):
    """A Composition's leaves by another definition: the points' variables, a
    bound on each leaf's total degree, sampled(seed, prime, trials, names)
    -> their values mod p at sample_point(vars.names, seed, prime, trials),
    which may be remembered by that key, and leaves(names) -> their
    polynomials, built when asked."""

    vars: VariableSet
    degrees: Mapping[str, int]
    sampled: Callable[[int, int, range, tuple], Mapping]
    leaves: Callable[[tuple], Mapping]


class Composition:
    """An identity outer(leaves): a polynomial over abstract names, each name
    bound to a leaf polynomial over the one variable set all leaves share.
    Every used name needs a leaf and every leaf is a name of outer, so exact
    expansion and modular evaluation read the same identity.  Modular
    evaluation takes the value of every leaf once and evaluates the outer
    polynomial at those values, so the composite is never expanded unless
    expand() is called.  eval_mod accepts a point of ints or of int64
    batches and returns an int, or an int64 array for a batch; eval_sampled
    takes the key of a sampled batch point in place of the point.

    With a Definition in place of the leaves, the leaves are the names of
    outer it defines; eval_sampled and degree_bound read it and no leaf
    polynomial, and it builds the leaves on the first read of .leaves (an
    exact expansion, a restriction, a slice proof, eval_mod at a given
    point).  restrict drops the definition: a restricted composition reads
    its restricted leaves only."""

    def __init__(self, outer: Polynomial, leaves: Mapping[str, Polynomial] | Definition):
        self.outer = outer
        self.definition = leaves if isinstance(leaves, Definition) else None
        if self.definition is not None:
            self.vars = leaves.vars
            self.names = tuple(n for n in outer.vars.names if n in leaves.degrees)
        else:
            self.leaves, self.names = dict(leaves), tuple(leaves)
            sets = {leaf.vars for leaf in self.leaves.values()}
            if len(sets) > 1:
                raise VariableMismatch("leaves use different variable sets")
            self.vars = sets.pop() if sets else VariableSet(())
        for name in outer.vars.names:
            if outer.max_exponent(name) and name not in self.names:
                raise PolyError(f"unbound abstract variable {name!r}")
        for name in self.names:
            if name not in outer.vars:
                raise VariableMismatch(f"leaf {name!r} is not a variable of the outer polynomial")

    @cached_property
    def leaves(self) -> dict:  # set in __init__ unless a definition builds it
        return dict(self.definition.leaves(self.names))

    def eval_mod(self, point: Mapping[str, int], prime: int):
        values = {name: poly_eval_mod(leaf, point, prime) for name, leaf in self.leaves.items()}
        return poly_eval_mod(self.outer, values, prime)

    def eval_sampled(self, seed: int, prime: int, trials: range):
        """The composite mod p at the batch point sample_point(self.vars.names,
        seed, prime, trials): eval_mod at that point, or, with a definition,
        the outer polynomial, evaluated here on every call, at the leaf
        values its sampled(...) gives for that key."""
        if self.definition is None:
            return self.eval_mod(sample_point(self.vars.names, seed, prime, trials), prime)
        return poly_eval_mod(self.outer, self.definition.sampled(seed, prime, trials, self.names), prime)

    def degree_bound(self) -> int:
        """Max over the outer terms of sum(exponent * leaf degree), which bounds
        the composite's total degree (a product's degree is at most the sum of
        its factors', a sum's at most its largest), with each leaf's total
        degree, or the definition's bound for it, so no leaf is built or read."""
        degrees = self.definition.degrees if self.definition is not None else {
            name: leaf.total_degree() for name, leaf in self.leaves.items()}
        weights = {name: (degrees[name],) for name in self.names}
        return max((sum(d) for d in self.outer.degrees(weights)), default=0)

    def expand(self) -> Polynomial:
        return self.outer.substitute(self.leaves)

    def restrict(self, bindings: Mapping[str, int]) -> "Composition":
        """The same outer polynomial at this composition's own leaves, each
        restricted: leaf.restrict(bindings), over the variables left free.

        Restriction commutes with composition (substitution is a ring
        homomorphism), so the restricted composite is the composite
        restricted.  Whether a zero restriction proves the identity is the
        caller's argument: see verify.run_slice_proof."""
        return Composition(
            self.outer, {name: leaf.restrict(bindings) for name, leaf in self.leaves.items()}
        )
