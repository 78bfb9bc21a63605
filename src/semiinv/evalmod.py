"""Modular evaluation of polynomials, determinants and compositions for
identity testing.

Identities too large to expand symbolically are checked by evaluating both
sides at random points over prime fields.  A nonzero polynomial of total
degree d vanishes at a uniformly random point of Z_p^n with probability at
most d/p (Schwartz-Zippel), so N independent points bound the chance of a
missed nonzero identity by (d/p)^N per prime.  This module is the only
modular arithmetic in the package: polynomials carry ZZ or QQ coefficients,
which poly_eval_mod reads through their cached exponents() and numerators()
and reduces mod p here, and det_mod takes numeric determinants of a whole
stack of matrices, batch-last: by the Leibniz expansion up to 3 x 3, with no
inverse, and by division-free elimination mod p above, with one Fermat
inverse per call for the product of the pivot scalings (its docstring
gives the int64 bounds of both).

Points are drawn from a counter-based SHA-256 stream keyed by
(seed, prime, trial), so a point does not depend on the batch it is evaluated
in and any trial can be reproduced in isolation.  A point's values may be ints
(of any size: residues reduces them before they become int64) or equal-length
int64 arrays; an array holds one value per trial of a batch, as
sample_point draws it for a range of trials, and numpy broadcasting carries
the batch through a composition.  A
composition either evaluates its leaf polynomials at the point or, when it
has a definition, takes the leaf values from it: the generators of the triple
identities are computed from the determinant table that defines them
(generators.GENERATOR_DETERMINANTS, read by generator_values_mod with one
det_mod call per matrix size), never from their expansions.
"""

from __future__ import annotations

import hashlib
import struct
from math import gcd
from typing import Callable, Mapping, Sequence

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
    A numpy integer array or scalar is reduced as it is; anything else (a
    Python int, a nested list) is reduced over the Python integers first, so
    a value outside int64, 2**64 or -2**70 say, has its residue like any
    other."""
    if not (isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind in "iu"):
        values = np.array(values, dtype=object) % prime
    return np.asarray(values % prime, dtype=np.int64)


# -- vectorized polynomial evaluation over Z_p ------------------------------


def poly_eval_mod(p: Polynomial, point: Mapping[str, int], prime: int):
    """Value of p at the point over Z_p, from p.exponents() and
    p.numerators() = (L, nums): the coefficients mod p are residues(nums)
    times L^-1, one inverse per call.  p divides L iff it divides some
    denominator; DenominatorNotInvertible then names the first in term order.

    A value of the point may be an int or an int64 array of shape (B,), one
    entry per trial of a batch; the result is then an int64 array of shape
    (B,), else an int.  Every entry lies in [0, p) with p < 2**31, so each
    product of two entries is below 2**62, and the sum over the terms (at most
    2**32 of them, each below 2**31) stays below 2**63: nothing overflows
    int64 before its reduction."""
    L, nums = p.numerators()
    if not nums:
        return 0
    if L % prime == 0:
        den = next(d for d in (L // gcd(n, L) for n in nums) if d % prime == 0)
        raise DenominatorNotInvertible(f"denominator {den} not invertible mod {prime}")
    # acc has the terms on its last axis and the batch, if any, in front
    acc = residues(nums, prime) * pow(L, -1, prime) % prime
    exps = p.exponents()
    for i in np.flatnonzero(exps.any(axis=0)).tolist():
        name = p.vars.names[i]
        if name not in point:
            raise PolyError(f"missing binding for {name!r}")
        v = residues(point[name], prime)
        col = exps[:, i]
        maxdeg = int(col.max())
        table = np.empty(v.shape + (maxdeg + 1,), dtype=np.int64)
        table[..., 0] = 1
        for e in range(1, maxdeg + 1):
            table[..., e] = table[..., e - 1] * v % prime
        acc = acc * table[..., col] % prime
    total = acc.sum(axis=-1) % prime
    return int(total) if total.ndim == 0 else total


# -- numeric determinants over Z_p ----------------------------------------------


def _inverse_mod(a: np.ndarray, prime: int) -> np.ndarray:
    """a^(p-2) mod p entrywise, by square and multiply: the inverse of every
    nonzero entry (Fermat)."""
    result = np.ones_like(a)
    e = prime - 2
    while e:
        if e & 1:
            result = result * a % prime
        a = a * a % prime
        e >>= 1
    return result


def det_mod(mats, prime: int) -> np.ndarray:
    """Determinants mod p of a stack of n x n integer matrices, shape
    (..., n, n) -> (...).

    Entries are reduced into [0, p) first (residues, so Python ints of any
    size are accepted) and stay there, with p < 2**31, so a product of two
    entries is below 2**62.  The work is batch-last: the stack is read as an
    (n, n, ...) array, whose entry (i, j) is one contiguous row over the
    matrices, so every step works on whole rows of the batch.  A stack whose
    memory is already laid out that way (a moved-axis view of an (n, n, ...)
    array, as generator_values_mod passes) is not copied for it.

    For n <= 3 the determinant is its Leibniz expansion along the first row,
    with no division and no inverse.  Each 2 x 2 minor, a difference of two
    products, lies in (-2**62, 2**62) and is reduced once.  The three signed
    products a*m0 - b*m1 + c*m2 then lie in (-2**62, 2**63), inside int64,
    and are reduced once.

    For n >= 4 it is division-free elimination over Z_p with one inverse per
    call.  Step k takes each matrix's own pivot: the first row at or below k
    with a nonzero entry in column k.  Where that is not row k, the two rows
    are swapped, which negates the determinant; the other matrices are left
    as they are.  Then every row i below k becomes
    pivot*row_i + (p - a_ik)*row_k, which clears a_ik mod p; both products
    lie in [0, 2**62), so their sum lies in [0, 2**63), and one reduction of
    a nonnegative int64 brings it back into [0, p).  This is sound for every
    odd prime, 3 included:
    - scaling row i by a nonzero pivot multiplies the determinant by the
      pivot, so step k multiplies it by pivot^(n-k-1), one factor per row
      below k;
    - adding a multiple of row k to row i leaves it unchanged;
    - with no nonzero entry at or below k in column k, the matrix reduced so
      far is singular mod p, so its determinant, and the original's, is 0.
      The pivot, 0, enters the numerator, which stays 0; 1 stands in for it
      in the scale, and the rows below are left as they are.
    The matrix ends upper triangular with the pivots on its diagonal, so
        det = (-1)^swaps * prod_k pivot_k / prod_k pivot_k^(n-k-1),
    and the denominator, a product of nonzero residues, is inverted once by
    Fermat.  It is accumulated as prod_{k<n-1} (pivot_0 * ... * pivot_k),
    which has pivot_k in n-k-1 of its factors."""
    m = np.moveaxis(residues(mats, prime), (-2, -1), (0, 1))
    n, shape = len(m), m.shape[2:]
    if n <= 3:
        return np.reshape(_leibniz_mod(m, prime), shape)
    m = np.ascontiguousarray(m).reshape(n, n, -1)  # residues made it: ours to overwrite
    num = np.ones(m.shape[-1], dtype=np.int64)
    prefix = np.ones_like(num)
    scale = np.ones_like(num)
    for k in range(n):
        zero = np.flatnonzero(m[k, k] == 0)
        if len(zero):
            below = k + (m[k:, k, zero] != 0).argmax(axis=0)  # k where the column is zero
            swap, rows = zero[below != k], below[below != k]
            row_k = m[k][:, swap]
            m[k][:, swap] = m[rows, :, swap].T
            m[rows, :, swap] = row_k.T
            num[swap] = prime - num[swap]
        pivot = m[k, k]
        num = num * pivot % prime
        if k == n - 1:
            break
        pivot = np.where(pivot != 0, pivot, 1)
        prefix = prefix * pivot % prime
        scale = scale * prefix % prime
        rest = m[k + 1 :, k + 1 :]
        rest *= pivot
        rest += (prime - m[k + 1 :, k, None]) * m[k, k + 1 :]
        rest %= prime
    return (num * _inverse_mod(scale, prime) % prime).reshape(shape)


def _leibniz_mod(m: np.ndarray, prime: int) -> np.ndarray:
    """det_mod's expansion for an (n, n, ...) stack of residues, n <= 3."""
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


class Composition:
    """An identity outer(leaves): a polynomial over abstract names, each name
    bound to a leaf polynomial over the one variable set all leaves share.
    Every used name needs a leaf and every leaf is a name of outer, so exact
    expansion and modular evaluation read the same identity.  Modular
    evaluation takes the value of every leaf once and evaluates the outer
    polynomial at those values, so the composite is never expanded unless
    expand() is called.  eval_mod accepts a point of ints or of int64
    batches and returns an int, or an int64 array for a batch.

    A definition, when given, is a function (point, prime, names) -> values
    that returns, for each leaf name, its leaf's value at the point mod p
    computed from another definition of the same polynomial; eval_mod then
    reads the leaf values from it and evaluates no leaf polynomial.  restrict
    drops the definition: a restricted composition reads its restricted
    leaves only."""

    def __init__(
        self,
        outer: Polynomial,
        leaves: Mapping[str, Polynomial],
        definition: Callable[[Mapping, int, tuple], Mapping] | None = None,
    ):
        for name in outer.vars.names:
            if outer.max_exponent(name) and name not in leaves:
                raise PolyError(f"unbound abstract variable {name!r}")
        for name in leaves:
            if name not in outer.vars:
                raise VariableMismatch(f"leaf {name!r} is not a variable of the outer polynomial")
        sets = {leaf.vars for leaf in leaves.values()}
        if len(sets) > 1:
            raise VariableMismatch("leaves use different variable sets")
        self.outer = outer
        self.leaves = dict(leaves)
        self.vars = sets.pop() if sets else VariableSet(())
        self.definition = definition

    def eval_mod(self, point: Mapping[str, int], prime: int):
        if self.definition is None:
            values = {
                name: poly_eval_mod(leaf, point, prime) for name, leaf in self.leaves.items()
            }
        else:
            defined = self.definition(point, prime, tuple(self.leaves))
            values = {name: defined[name] for name in self.leaves}
        return poly_eval_mod(self.outer, values, prime)

    def degree_bound(self) -> int:
        """Max over the outer terms of sum(exponent * leaf total degree)."""
        weights = {name: (leaf.total_degree(),) for name, leaf in self.leaves.items()}
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
