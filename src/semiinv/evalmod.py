"""Modular evaluation of polynomials and of compositions for identity testing.

Identities too large to expand symbolically are checked by evaluating both
sides at random points over prime fields.  A nonzero polynomial of total
degree d vanishes at a uniformly random point of Z_p^n with probability at
most d/p (Schwartz-Zippel), so N independent points bound the chance of a
missed nonzero identity by (d/p)^N per prime.  This kernel is the only
modular arithmetic in the package: polynomials carry ZZ or QQ coefficients,
which are reduced mod p here.

Points are drawn from a counter-based SHA-256 stream keyed by
(seed, prime, trial), so a point does not depend on the batch it is evaluated
in and any trial can be reproduced in isolation.  A point's values may be ints
or equal-length int64 arrays; an array holds one value per trial of a batch,
and numpy broadcasting carries the batch through the leaves and the outer
polynomial of a composition.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .poly import Polynomial, PolyError, VariableMismatch, VariableSet, _FIELD_MASK

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


def check_prime(p: int, allow_small_char: bool = False) -> int:
    """Validate a verification prime: odd, < 2**31, prime, and not 2 or 3
    unless small characteristics are explicitly allowed."""
    if p % 2 == 0 or p >= _PRIME_LIMIT or not _is_prime_u32(p):
        raise PolyError(f"{p} is not an odd prime below 2**31")
    if p == 3 and not allow_small_char:
        raise PolyError("characteristic 3 requires allow_small_char")
    return p


def sample_point(names: Sequence[str], seed: int, prime: int, trial: int) -> dict:
    """Deterministic uniform point in Z_p^n keyed by (seed, prime, trial)."""
    key = f"semiinv-v1|{seed}|{prime}|{trial}".encode()
    limit = (2**64 // prime) * prime  # rejection bound for uniformity
    values = []
    counter = 0
    while len(values) < len(names):
        digest = hashlib.sha256(key + b"|" + str(counter).encode()).digest()
        counter += 1
        for i in range(0, 32, 8):
            w = int.from_bytes(digest[i : i + 8], "big")
            if w < limit:
                values.append(w % prime)
                if len(values) == len(names):
                    break
    return dict(zip(names, values))


# -- vectorized polynomial evaluation over Z_p ------------------------------


def _compiled(p: Polynomial):
    """Exponent matrix and coefficient data, cached on the polynomial."""
    cache = p._cache
    comp = cache.get("evalmod")
    if comp is None:
        nvars = len(p.vars)
        keys = list(p.terms)
        exps = np.zeros((len(keys), nvars), dtype=np.int64)
        shifts = p.vars._shifts
        for t, k in enumerate(keys):
            for i, sh in enumerate(shifts):
                e = (k >> sh) & _FIELD_MASK
                if e:
                    exps[t, i] = e
        used = [i for i in range(nvars) if exps[:, i].any()]
        nums = []
        dens = []
        for k in keys:
            c = p.terms[k]
            if isinstance(c, Fraction):
                nums.append(c.numerator)
                dens.append(c.denominator)
            else:
                nums.append(c)
                dens.append(1)
        comp = {
            "exps": exps,
            "used": used,
            "nums": nums,
            "dens": dens,
            "coeffs_mod": {},
        }
        cache["evalmod"] = comp
    return comp


def _coeffs_mod(comp, prime: int) -> np.ndarray:
    arr = comp["coeffs_mod"].get(prime)
    if arr is None:
        vals = []
        for num, den in zip(comp["nums"], comp["dens"]):
            if den == 1:
                vals.append(num % prime)
            else:
                if den % prime == 0:
                    raise DenominatorNotInvertible(
                        f"denominator {den} not invertible mod {prime}"
                    )
                vals.append(num * pow(den, -1, prime) % prime)
        arr = np.array(vals, dtype=np.int64)
        comp["coeffs_mod"][prime] = arr
    return arr


def poly_eval_mod(p: Polynomial, point: Mapping[str, int], prime: int):
    """Value of p at the point over Z_p; coefficients are reduced mod p
    (rational coefficients via modular inverse of the denominator).

    A value of the point may be an int or an int64 array of shape (B,), one
    entry per trial of a batch; the result is then an int64 array of shape
    (B,), else an int.  Every entry lies in [0, p) with p < 2**31, so each
    product of two entries is below 2**62, and the sum over the terms (at most
    2**32 of them, each below 2**31) stays below 2**63: nothing overflows
    int64 before its reduction."""
    comp = _compiled(p)
    if not len(comp["nums"]):
        return 0
    # acc has the terms on its last axis and the batch, if any, in front
    acc = _coeffs_mod(comp, prime)
    exps = comp["exps"]
    for i in comp["used"]:
        name = p.vars.names[i]
        if name not in point:
            raise PolyError(f"missing binding for {name!r}")
        v = np.asarray(point[name] % prime, dtype=np.int64)
        col = exps[:, i]
        maxdeg = int(col.max())
        table = np.empty(v.shape + (maxdeg + 1,), dtype=np.int64)
        table[..., 0] = 1
        for e in range(1, maxdeg + 1):
            table[..., e] = table[..., e - 1] * v % prime
        acc = acc * table[..., col] % prime
    total = acc.sum(axis=-1) % prime
    return int(total) if total.ndim == 0 else total


# -- identities: an outer polynomial at named leaf polynomials ---------------


class Composition:
    """An identity outer(leaves): a polynomial over abstract names, each name
    bound to a leaf polynomial over the one variable set all leaves share.
    Every used name needs a leaf and every leaf is a name of outer, so exact
    expansion and modular evaluation read the same identity.  Modular
    evaluation evaluates every leaf once and the outer polynomial at their
    values, so the composite is never expanded unless expand() is called.
    eval_mod returns an int, or an int64 array for a batch of points."""

    def __init__(self, outer: Polynomial, leaves: Mapping[str, Polynomial]):
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

    def eval_mod(self, point: Mapping[str, int], prime: int):
        values = {
            name: poly_eval_mod(leaf, point, prime) for name, leaf in self.leaves.items()
        }
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
