"""Exact sparse multivariate polynomial arithmetic.

Coefficients are Python ints (ring ZZ) or fractions.Fraction (ring QQ); there
is no other ring, so the layer works in characteristic 0 and modular
arithmetic lives only in the evaluation kernel of `evalmod`.  A monomial is an
exponent vector over a fixed, ordered variable set; internally it is packed
into a single integer at 8 bits per variable, the first variable in the most
significant byte.  Packed keys compare lexicographically exactly like the
exponent vectors they encode, so the canonical graded-lex term order reduces
to integer comparisons, and monomial multiplication is a single big-int
addition.  Per-variable exponents are bounded by 255; every object built in
this project has total degree <= 54, and products guard the bound through a
conservative per-polynomial exponent cap.

Invariant: the big-endian bytes of a key, key.to_bytes(len(vars), "big"), are
its exponent vector.  exponents() is the one decoder of keys (the
constructor's maxexp default only takes the largest byte), and _reindexed,
the one kernel behind restrict, coefficient_of and convert, reads its keys
back from the bytes of moved exponent rows; it also builds the `terms` of a
polynomial born columnar.  The packed key is known only to this module: no
other module reads `terms` or calls the constructor (from_columns takes rows).

Two kernels loop over pairs of terms.  The dict kernel, _add_products, adds
big-int keys into a dict: mul, sum_of_products, determinant and the Horner
steps of substitute add through it, and through them every matrix product.
columnar_sum computes sum_of_products' sum by stable sorts and
np.add.reduceat (sum_by_key) over bit-field monomial keys (key_layout, the
one key of the numpy kernels, hwv's derivation kernel and generators' q
kernel too) and fills no dict: the H/Q correction sums are built by it,
and its result is born columnar, its exponents() decoded from its keys
(key_rows), its `terms` dict built only when read.  Every other product
keeps the dict kernel, where small operands are cheaper.

Kernels read a polynomial through two views, built once and cached, both
in term order: exponents(), the (terms, vars) uint8 matrix built from the
keys' bytes, and numerators(), the coefficients as the ints c * L over their
least common denominator L (1 over ZZ).  Every integer reading of a
coefficient goes through numerators(): substitute, sum_of_products,
columnar_sum, _reindexed, hwv's derivation kernel and evalmod.  Weighted
sums of the exponents (degrees, the derivation kernel's and columnar_sum's
keys) go through exponent_sums, which widens one block of rows at a time
(to int64, or to Python ints for wide keys), never the whole matrix.

Polynomials are immutable after construction and every operation is pure, so
values can be shared freely; the one deferred build, the `terms` of a
polynomial born columnar, changes no value.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, groupby, islice
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Coeff = Union[int, Fraction]

_FIELD_BITS = 8
_FIELD_MASK = 0xFF
_MAX_EXP = 0xFF


# keys exponents() decodes at once
_ROW_BLOCK = 1024
# bytes of one block's int64 copy in exponent_sums, below glibc's 128 KiB
# mmap threshold: a block is reused from the heap, never mapped afresh
_BLOCK_BYTES = 2**16
# pairs of terms per block of columnar_sum: one block's int64 keys take 32 KB
_PAIR_BLOCK = 4096
_WORD_LIMIT = 2**63


def exponent_sums(exps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exps @ w in w's dtype, int64 or object (Python ints), for a uint8
    exponent matrix and a weight vector or matrix, by blocks of rows of at
    most _BLOCK_BYTES in int64 (303 rows on 27 columns): one block is
    widened at once, never the whole matrix (2 MB in int64 for the 9216
    terms of Q).  For int64 weights the caller bounds the sums by 2**63."""
    out = np.empty((len(exps),) + w.shape[1:], dtype=w.dtype)
    step = max(1, _BLOCK_BYTES // (8 * max(1, exps.shape[1])))
    for start in range(0, len(exps), step):
        out[start : start + step] = exps[start : start + step].astype(w.dtype) @ w
    return out


def key_layout(maxima: Sequence[int]) -> tuple:
    """(places, radices) of bit-field monomial keys, the one key of the
    numpy kernels (columnar_sum, hwv's derivation kernel): a digit vector d
    with 0 <= d[j] <= maxima[j] has the key sum(d[j] * places[j])
    (exponent_sums), digit j a field of maxima[j].bit_length() bits,
    radices[j] = 2**(its width), the first digit the most significant.

    Exact: places[j] is the product of the radices after j and d[j] <
    radices[j], so no field carries into the next: key // places[j] mod
    radices[j] reads d[j] back (key_rows), keys are injective, and key
    order is the lexicographic order of the digit vectors.  Keys are
    linear, so a sum of keys, or a key plus a difference of places, whose
    digits stay within the maxima is the key of those digits.  Every key
    lies in [0, 2**bits), bits the sum of the widths; the arrays, and so
    the keys, are int64 when 3 * 2**bits < 2**63, so that a key shifted
    twice by less than 2**bits (hwv's cut keys) stays in int64, and Python
    ints (dtype object) otherwise."""
    widths = [int(m).bit_length() for m in maxima]
    dtype = np.int64 if 3 * 2 ** sum(widths) < _WORD_LIMIT else object
    places = [2 ** sum(widths[j + 1 :]) for j in range(len(widths))]
    return np.array(places, dtype), np.array([2**w for w in widths], dtype)


def key_rows(keys: np.ndarray, places: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """The uint8 digit rows (digits at most 255) of key_layout's keys, one
    column at a time, by floor division alone: places[j - 1] = places[j] *
    radices[j], so digit j is key // places[j] - (key // places[j - 1]) *
    radices[j].  No temporary is wider than a column of keys."""
    rows = np.empty((len(keys), len(places)), np.uint8)
    above = np.zeros(len(keys), keys.dtype)  # key // places[j - 1], 0 above the first digit
    for j, (place, radix) in enumerate(zip(places, radices)):
        here = keys // place
        rows[:, j] = here - above * radix
        above = here
    return rows


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """(the distinct keys in increasing order, the sum of the values on
    each) by one stable sort and one np.add.reduceat over runs of equal
    keys.  Stable sorts merge sorted runs fast, and numpy's default sorts
    would page in their own vectorized code, a few hundred KB of RSS."""
    order = keys.argsort(kind="stable")
    keys = keys[order]
    runs = np.flatnonzero(changes(keys[:, None]))
    keys = keys[runs]
    return keys, np.add.reduceat(values[order], runs)


def changes(keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted keys that differ from the row before."""
    mask = np.ones(len(keys), dtype=bool)
    mask[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return mask


class PolyError(Exception):
    """Base class for errors raised by the polynomial layer."""


class RingMismatch(PolyError):
    pass


class VariableMismatch(PolyError):
    pass


class Ring:
    """Coefficient ring tag: ZZ or QQ.  These are the only rings, so every
    polynomial lives in characteristic 0."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def normalize(self, c) -> Coeff:
        """Coerce a scalar into this ring, or raise RingMismatch."""
        if self.kind == "ZZ":
            if isinstance(c, int):
                return c
            if isinstance(c, Fraction):
                if c.denominator == 1:
                    return c.numerator
                raise RingMismatch(f"non-integer coefficient {c} in ZZ")
            raise RingMismatch(f"bad coefficient {c!r} for ZZ")
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise RingMismatch(f"bad coefficient {c!r} for QQ")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


ZZ = Ring("ZZ")
QQ = Ring("QQ")


def unify_rings(a: Ring, b: Ring) -> Ring:
    """The smallest ring both coefficient sets coerce into: ZZ embeds in QQ."""
    return a if a == b else QQ


class VariableSet:
    """An ordered set of distinct variable names; the order fixes the monomial order."""

    __slots__ = ("names", "_index", "_shifts")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise VariableMismatch("duplicate variable names")
        if not all(isinstance(n, str) and n for n in names):
            raise VariableMismatch("variable names must be non-empty strings")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self._shifts = tuple((n - 1 - i) * _FIELD_BITS for i in range(n))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VariableMismatch(f"unknown variable {name!r}") from None

    def shift(self, name: str) -> int:
        return self._shifts[self.index(name)]

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != len(self.names):
            raise VariableMismatch(
                f"exponent vector of length {len(exps)}, expected {len(self.names)}"
            )
        key = 0
        for e, sh in zip(exps, self._shifts):
            if not 0 <= e <= _MAX_EXP:
                raise PolyError(f"exponent {e} outside [0, {_MAX_EXP}]")
            key |= e << sh
        return key

    def unpack(self, key: int) -> tuple:
        return tuple((key >> sh) & _FIELD_MASK for sh in self._shifts)

    def extend(self, extra: Iterable[str]) -> "VariableSet":
        return VariableSet(self.names + tuple(extra))

    def __contains__(self, name) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSet({list(self.names)!r})"


_UNIT = ((0, 1),)  # the constant 1 as (key, int) pairs


def _add_products(acc: dict, m: int, a, b, maxexp: int):
    """acc[k1 + k2] += m * c1 * c2 over every pair of terms (k1, c1) of a and
    (k2, c2) of b, both sized and re-iterable collections of (key, int)
    pairs; a key whose sum is 0 stays in acc.  maxexp bounds every exponent
    of the products, and a product of nonzero operands past 255 raises.  The
    one loop over pairs of terms: mul, sum_of_products and substitute add
    their products here, the smaller operand outside."""
    if a and b and maxexp > _MAX_EXP:
        raise PolyError("product exceeds the per-variable exponent bound 255")
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for k1, c1 in a:
        c1 *= m
        if not k1:
            # a constant term keeps b's key objects (k2 + 0 is a new big int)
            for k2, c2 in b:
                c0 = get(k2)
                acc[k2] = c1 * c2 if c0 is None else c0 + c1 * c2
            continue
        for k2, c2 in b:
            k = k1 + k2
            c0 = get(k)
            acc[k] = c1 * c2 if c0 is None else c0 + c1 * c2


def _weighted(ring: Ring, vars: VariableSet, triples: Iterable[tuple]) -> tuple:
    """(den, [(m, a, b)]): the (c, a, b) triples of a sum of products, read
    as sum_of_products' contract states.  c is normalized into ring, and a
    and b must live over vars, in ring or in ZZ.  A triple with c = 0 or a
    zero operand is dropped; every other one passes mul's guard, a.maxexp +
    b.maxexp <= 255.  With La, Lb the denominators of the operands'
    numerators() (1 over ZZ), den is the lcm of the denominators of the
    weights w = c / (La * Lb), and m = den * w is an int: the sum is
    sum(m * na * nb) / den over the operands' numerators."""
    work = []
    for c, a, b in triples:
        c = ring.normalize(c)
        for p in (a, b):
            if p.vars != vars:
                raise VariableMismatch("operands live over different variable sets")
            if p.ring != ring and p.ring != ZZ:
                raise RingMismatch(f"{p.ring} operand in a {ring} sum")
        if c and a and b:
            if a.maxexp + b.maxexp > _MAX_EXP:
                raise PolyError("product exceeds the per-variable exponent bound 255")
            La, Lb = (1 if p.ring == ZZ else p.numerators()[0] for p in (a, b))
            # an int over ZZ, where La = Lb = 1; a Fraction over QQ
            work.append((c if La * Lb == 1 else c / (La * Lb), a, b))
    den = lcm(*(w.denominator for w, _, _ in work))
    return den, [(w.numerator * (den // w.denominator), a, b) for w, a, b in work]


def _scaled(v: "Polynomial", D: int) -> "Polynomial":
    """D * v over ZZ, for a D that every denominator of v divides."""
    if v.ring == ZZ and D == 1:
        return v
    L, nums = v.numerators()
    scale = D // L
    if scale != 1:
        nums = (n * scale for n in nums)
    return Polynomial(ZZ, v.vars, dict(zip(v.terms, nums)), v.maxexp)


class Polynomial:
    """A canonical sparse polynomial: packed monomial -> nonzero coefficient.

    `maxexp` is a conservative upper bound on any single exponent appearing in
    the polynomial; multiplication uses it to guard the packed representation.
    A polynomial is born either from its `terms` dict or, by from_columns,
    columnar: from its exponents() and numerators(), its dict built on the
    first read of `terms`.
    """

    __slots__ = ("ring", "vars", "_terms", "maxexp", "_cache")

    def __init__(self, ring: Ring, vars: VariableSet, terms: dict, maxexp: int | None = None):
        self.ring = ring
        self.vars = vars
        self._terms = terms
        if maxexp is None:
            n = len(vars)
            maxexp = max((max(k.to_bytes(n, "big"), default=0) for k in terms), default=0)
        self.maxexp = maxexp
        self._cache: dict = {}

    @classmethod
    def from_columns(
        cls, ring: Ring, vars: VariableSet, exps: np.ndarray, L: int, nums: tuple, maxexp: int
    ) -> "Polynomial":
        """A polynomial born columnar (columnar_sum, generators'
        columnar_determinant_sum): exps and (L, nums) become its
        exponents() and numerators(), which must hold their contracts (rows
        distinct, nums nonzero, L the lcm of the coefficients'
        denominators), and `terms` is built from them when first read."""
        p = cls.__new__(cls)
        p.ring, p.vars, p._terms, p.maxexp = ring, vars, None, maxexp
        exps.flags.writeable = False
        p._cache = {"exponents": exps, "numerators": (L, nums)}
        return p

    @property
    def terms(self) -> dict:
        """packed key -> nonzero coefficient; for a polynomial born columnar,
        built once from its rows by _reindexed, the one kernel that turns
        rows into keys."""
        if self._terms is None:
            self._terms = self._reindexed(self.ring, self.vars)._terms
        return self._terms

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, vars: VariableSet) -> "Polynomial":
        return cls(ring, vars, {}, 0)

    @classmethod
    def constant(cls, ring: Ring, vars: VariableSet, c) -> "Polynomial":
        c = ring.normalize(c)
        return cls(ring, vars, {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, ring: Ring, vars: VariableSet, name: str) -> "Polynomial":
        return cls(ring, vars, {1 << vars.shift(name): ring.normalize(1)}, 1)

    @classmethod
    def from_terms(cls, ring: Ring, vars: VariableSet, terms: Mapping) -> "Polynomial":
        """Build from {exponent tuple -> coefficient}."""
        acc: dict = {}
        for mono, c in terms.items():
            key = vars.pack(mono)
            c = ring.normalize(c)
            c0 = acc.get(key)
            c = c if c0 is None else ring.normalize(c0 + c)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        return cls(ring, vars, acc)

    @classmethod
    def monomial(cls, ring: Ring, vars: VariableSet, exps: Mapping[str, int], c=1) -> "Polynomial":
        """A single term from a {name: exponent} map."""
        vec = [0] * len(vars)
        for name, e in exps.items():
            vec[vars.index(name)] += e
        c = ring.normalize(c)
        if not c:
            return cls.zero(ring, vars)
        return cls(ring, vars, {vars.pack(vec): c})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        """The number of terms, read without building the dict of a
        polynomial born columnar."""
        terms = self._terms
        return len(self._cache["exponents"]) if terms is None else len(terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = Polynomial.constant(self.ring, self.vars, other)
            except RingMismatch:
                return False
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def exponents(self) -> np.ndarray:
        """The exponent vectors as a read-only (terms, vars) uint8 matrix, one
        row per key of `terms` in its order; built once from the keys' bytes,
        _ROW_BLOCK keys at a time into the matrix, and cached (born with the
        polynomial when it is columnar)."""
        m = self._cache.get("exponents")
        if m is None:
            n, keys = len(self.vars), iter(self.terms)
            m = np.empty((len(self.terms), n), np.uint8)
            flat = m.reshape(-1)
            for row in range(0, len(m), _ROW_BLOCK):
                raw = b"".join(k.to_bytes(n, "big") for k in islice(keys, _ROW_BLOCK))
                flat[row * n : row * n + len(raw)] = np.frombuffer(raw, np.uint8)
            m.flags.writeable = False
            m = self._cache["exponents"] = m.view()  # a view of a read-only array stays read-only
        return m

    def numerators(self) -> tuple:
        """(L, nums): L the lcm of the coefficients' denominators (1 over ZZ)
        and nums the tuple of the Python ints c * L, one per key of `terms` in
        its order; built once and cached.  Every coefficient is nums[i] / L."""
        form = self._cache.get("numerators")
        if form is None:
            coeffs = self.terms.values()
            if self.ring == QQ:
                L = lcm(*(c.denominator for c in coeffs))
                form = L, tuple(c.numerator * (L // c.denominator) for c in coeffs)
            else:
                form = 1, tuple(coeffs)
            self._cache["numerators"] = form
        return form

    def sorted_terms(self) -> list:
        """Terms as (exponent tuple, coefficient), graded-lex descending."""
        rows = self.exponents().tolist()
        items = sorted(zip(map(sum, rows), self.terms, rows), key=lambda x: x[:2], reverse=True)
        return [(tuple(row), self.terms[k]) for _, k, row in items]

    def total_degree(self) -> int:
        return int(self.exponents().sum(axis=1, dtype=np.int64).max(initial=0))

    def degrees(self, weights: Mapping[str, Sequence[int]]) -> set:
        """The set of weighted degree vectors of the terms: a term x^e has
        degree sum(e[name] * weights[name]).  Weights are int vectors keyed by
        variable name and share one length; an unlisted variable weighs 0, and
        a weighted name that is not one of the variables raises
        VariableMismatch.  One vector means the polynomial is homogeneous
        under the grading; the zero polynomial has none.  The int64 sums
        cannot overflow: a weight must lie below 2**32 in magnitude, and a term
        has total degree at most 255 * len(vars), so a sum stays below 2**62
        for any set of fewer than 2**22 variables.  A homogeneous polynomial,
        every row equal to the first, makes one tuple, not one per term.  The
        sums are exponent_sums, taken by blocks of rows: no int64 copy of the
        whole exponent matrix is made."""
        if len({len(w) for w in weights.values()}) > 1:
            raise PolyError("weight vectors of different lengths")
        if any(abs(w) >= 2**32 for ws in weights.values() for w in ws):
            raise PolyError("weights must lie below 2**32 in magnitude")
        width = len(next(iter(weights.values()), ()))
        w = np.zeros((len(self.vars), width), dtype=np.int64)  # 0 for an unlisted variable
        for name, ws in weights.items():
            w[self.vars.index(name)] = ws
        d = exponent_sums(self.exponents(), w)
        if len(d) and (d == d[0]).all():
            return {tuple(d[0].tolist())}
        return set(map(tuple, d.tolist()))

    def max_exponent(self, name: str) -> int:
        return int(self.exponents()[:, self.vars.index(name)].max(initial=0))

    def coefficient(self, exps: Mapping[str, int] | Sequence[int]) -> Coeff:
        """Coefficient of one full monomial (zero if absent)."""
        if isinstance(exps, Mapping):
            vec = [0] * len(self.vars)
            for name, e in exps.items():
                vec[self.vars.index(name)] = e
            key = self.vars.pack(vec)
        else:
            key = self.vars.pack(exps)
        return self.terms.get(key, 0)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.vars != other.vars:
            raise VariableMismatch("operands live over different variable sets")

    def __add__(self, other):
        if not isinstance(other, Polynomial):  # a scalar of the ring, or RingMismatch
            other = Polynomial.constant(self.ring, self.vars, other)
        self._check_compatible(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            c0 = out.get(k)
            if c0 is None:
                out[k] = c
                continue
            c0 = c0 + c
            if c0:
                out[k] = c0
            else:
                del out[k]
        return Polynomial(self.ring, self.vars, out, max(self.maxexp, other.maxexp))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, self.vars, {k: -c for k, c in self.terms.items()}, self.maxexp)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -self.ring.normalize(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.normalize(other)
            if not c:
                return Polynomial.zero(self.ring, self.vars)
            return Polynomial(self.ring, self.vars, {k: v * c for k, v in self.terms.items()}, self.maxexp)
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Polynomial") -> "Polynomial":
        """Exact product of two polynomials over one ring and variable set."""
        self._check_compatible(other)
        return Polynomial.sum_of_products(self.ring, self.vars, ((1, self, other),))

    @classmethod
    def sum_of_products(cls, ring: Ring, vars: VariableSet, triples: Iterable[tuple]) -> "Polynomial":
        """The exact sum of c * a * b over (c, a, b) triples, accumulated in
        one dict: c is a scalar of ring, and a and b live over vars, in ring
        or in ZZ.  A triple with c = 0 or a zero operand adds nothing; every
        other one passes mul's guard, a.maxexp + b.maxexp <= 255, and the
        result's bound is the largest such sum.

        Fraction-free: with La, Lb the denominators of the operands'
        numerators() (1 over ZZ) and den the lcm of the denominators of the
        weights w = c / (La * Lb), the sums of na * nb run in ints, weighted
        by den * w, and each output coefficient becomes Fraction(v, den) once
        (_weighted reads the triples)."""
        den, work = _weighted(ring, vars, triples)
        acc: dict = {}
        for m, a, b in work:
            _add_products(acc, m, a._int_form()[1], b._int_form()[1], a.maxexp + b.maxexp)
        out = {k: v for k, v in acc.items() if v}
        if ring == QQ:
            out = {k: Fraction(v, den) for k, v in out.items()}
        return cls(ring, vars, out, max((a.maxexp + b.maxexp for _, a, b in work), default=0))

    @classmethod
    def columnar_sum(cls, ring: Ring, vars: VariableSet, triples: Iterable[tuple]) -> "Polynomial":
        """sum_of_products' sum, under its contract (the same validation,
        exponent bound and fraction-free den), built columnar: the result is
        born from its exponents() and numerators(), in increasing
        lexicographic order of its exponent vectors, and its `terms` dict is
        built only when read.  No dict is filled here.

        Each operand's keys are sorted once.  A triple's pairs of terms are
        formed by blocks of about _PAIR_BLOCK, rows of the smaller operand a
        against the whole larger one b, the pair (i, j) with the key ka[i] +
        kb[j] and the value m * na[i] * nb[j]; each block joins the sums so
        far in one sum_by_key (its stable sort merges their sorted runs
        fast).  A sum of 0 is dropped, and a later pair on its key starts it
        again.  The rows are decoded from the final keys (key_rows).  Exact:

        * Keys.  key_layout's, over r_j = max over the triples of (the column
          max of a) + (the column max of b): every exponent of a product lies
          in [0, r_j], so ka[i] + kb[j] is the key of the product's exponents.
        * Sums.  Every value, and every partial sum of values, is bounded in
          magnitude by sum over the triples of |m| * sum|na| * sum|nb|
          (each value is a distinct term of that expansion).  When the
          bound, in Python ints, is below 2**63 the values and sums run in
          int64; otherwise in Python ints (dtype object).  No float is used.
        * Coefficients.  With g = gcd(den, *sums), the coefficients are
          sums / den, the lcm of their denominators is L = den / g, and the
          numerators are sums / g: numerators()' contract holds."""
        den, work = _weighted(ring, vars, triples)
        tops = np.zeros(len(vars), dtype=np.int64)  # per column, the largest exponent of a product
        for _, a, b in work:
            top = a.exponents().max(axis=0, initial=0) + b.exponents().max(axis=0, initial=0).astype(np.int64)
            tops = np.maximum(tops, top)
        places, radices = key_layout(tops.tolist())
        bound = sum(
            abs(m) * sum(map(abs, a.numerators()[1])) * sum(map(abs, b.numerators()[1])) for m, a, b in work
        )
        dtype = np.int64 if bound < _WORD_LIMIT else object

        def by_key(p: Polynomial) -> tuple:
            """p's keys, distinct, and numerators in increasing key order."""
            return sum_by_key(exponent_sums(p.exponents(), places), np.array(p.numerators()[1], dtype=dtype))

        keys, sums = np.zeros(0, dtype=places.dtype), np.zeros(0, dtype=dtype)
        for m, a, b in work:
            if len(a) > len(b):
                a, b = b, a
            (ka, va), (kb, vb) = by_key(a), by_key(b)
            va *= m
            step = max(1, _PAIR_BLOCK // len(b))
            for lo in range(0, len(a), step):
                keys = np.concatenate((keys, (ka[lo : lo + step, None] + kb).ravel()))
                sums = np.concatenate((sums, (va[lo : lo + step, None] * vb).ravel()))
                keys, sums = sum_by_key(keys, sums)
                kept = np.flatnonzero(sums)
                if len(kept) < len(sums):
                    keys, sums = keys[kept], sums[kept]
        nums = sums.tolist()
        g = gcd(den, *nums) if nums else den
        return cls.from_columns(
            ring, vars, key_rows(keys, places, radices), den // g, tuple(v // g for v in nums),
            max((a.maxexp + b.maxexp for _, a, b in work), default=0),
        )

    @classmethod
    def determinant(cls, ring: Ring, vars: VariableSet, rows: Sequence[Sequence["Polynomial"]]) -> "Polynomial":
        """Exact determinant of a square matrix over ring and vars, by dynamic
        programming over column subsets: the minor of rows 0..k on a subset
        sums sign * entry (k, j) * the minor of rows 0..k-1 on the subset
        without j.  Each minor is one int dict that _add_products adds into in
        sum_of_products' order, read as its items() view: no Polynomial is
        built per subset, a term that cancels stays as a 0 that adds nothing
        to the next minors, and the zero terms are dropped once, from the
        full determinant.  Row k is scaled by the lcm L_k of its denominators,
        the result divided by prod(L_k).  Exponent bounds add along the
        products of nonempty minors, each guarded as in mul."""
        dens = [lcm(*(e._int_form()[0] for e in row)) for row in rows]
        scaled = [[(_scaled(e, L).terms.items(), e.maxexp) for e in row] for row, L in zip(rows, dens)]
        states = {0: (_UNIT, 0)}  # column subset (bitmask) -> (minor's terms, bound)
        for k, row in enumerate(scaled):
            sums: dict = {}
            for mask, (minor, bound) in states.items():
                for j, (entry, cap) in enumerate(row):
                    bit = 2**j
                    if mask & bit or not entry:
                        continue
                    acc = sums.setdefault(mask | bit, [{}, 0])
                    if minor:
                        sign = -1 if (k + (mask & (bit - 1)).bit_count()) & 1 else 1
                        _add_products(acc[0], sign, minor, entry, bound + cap)
                        acc[1] = max(acc[1], bound + cap)
            states = {m: (acc.items(), cap) for m, (acc, cap) in sums.items()}
        minor, cap = states.get(2 ** len(rows) - 1, ((), 0))
        den = prod(dens)
        out = {key: c for key, c in minor if c}
        if ring == QQ:
            out = {key: Fraction(c, den) for key, c in out.items()}
        return cls(ring, vars, out, cap if out else 0)

    def _int_form(self) -> tuple:
        """(L, the terms as (key, int) pairs): numerators() over QQ."""
        if self.ring == ZZ:
            return 1, self.terms.items()
        L, nums = self.numerators()
        return L, list(zip(self.terms, nums))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolyError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.ring, self.vars, 1)
        for _ in range(n):
            result = result.mul(self)
        return result

    # -- ring / variable-set conversion -------------------------------------

    def to_ring(self, ring: Ring) -> "Polynomial":
        if ring == self.ring:
            return self
        out: dict = {}
        for k, c in self.terms.items():
            c = ring.normalize(Fraction(c) if isinstance(c, int) else c)
            if c:
                out[k] = c
        return Polynomial(ring, self.vars, out, self.maxexp)

    def convert(self, new_vars: VariableSet) -> "Polynomial":
        """Re-express over another variable set, matching variables by name."""
        if new_vars == self.vars:
            return self
        for name in self.vars.names:
            if name not in new_vars and self.max_exponent(name):
                raise VariableMismatch(f"variable {name!r} used but absent from target set")
        return self._reindexed(self.ring, new_vars)

    def _reindexed(self, ring: Ring, vars: VariableSet, keep=None, factors=None, den: int = 1) -> "Polynomial":
        """The rows of exponents() that the boolean mask `keep` picks (every
        row if None), over `vars`: each column that `vars` shares moves to its
        place there, the others are dropped, and each row becomes one key,
        read from its bytes.  The rows' numerators(), each times its int in
        `factors` (1 if None), add up on their key, and each sum is divided
        once, by L * den, into `ring`.  The callers account for the dropped
        columns: convert checks they are 0, coefficient_of matches them, and
        restrict multiplies them into `factors` and `den`."""
        exps = self.exponents()
        L, nums = self.numerators()
        if keep is not None:
            exps, nums = exps[keep], compress(nums, keep.tolist())
        if factors is not None:
            nums = (c * f for c, f in zip(nums, factors))
        old = [i for i, name in enumerate(self.vars.names) if name in vars]
        moved = np.zeros((len(exps), len(vars)), np.uint8)
        moved[:, [vars.index(self.vars.names[i]) for i in old]] = exps[:, old]
        n, raw = len(vars), moved.tobytes()
        acc: dict = {}
        for t, c in enumerate(nums):
            k = int.from_bytes(raw[t * n : t * n + n], "big")
            acc[k] = acc.get(k, 0) + c
        out = {k: Fraction(c, L * den) if ring == QQ else c for k, c in acc.items() if c}
        return Polynomial(ring, vars, out, self.maxexp)

    # -- restriction, extraction, substitution, evaluation ----------------------

    def restrict(self, values: Mapping[str, Coeff]) -> "Polynomial":
        """Fix some variables to ints or Fractions: the polynomial in the
        variables that remain, in their order.  A non-integral value moves a
        ZZ polynomial to QQ.

        Fraction-free, by substitute's argument with constant bindings: with
        each value a/D over one D, a term of degree d in the fixed variables
        has its numerator times prod(a^e) * D^(dmax-d), and each output
        coefficient is divided once, by L * D^dmax.  The row mask drops the
        terms that a value 0 kills, and a value 1 (a = D) multiplies nothing,
        so it counts in no d."""
        fixed = {self.vars.index(name): QQ.normalize(v) for name, v in values.items()}
        exps = self.exponents()
        keep = ~exps[:, [i for i, v in fixed.items() if not v]].any(axis=1)
        general = {i: v for i, v in fixed.items() if v not in (0, 1)}
        D = lcm(*(v.denominator for v in general.values()))
        rows = exps[keep][:, list(general)].tolist() if general else []
        dmax = max(map(sum, rows), default=0)
        a = [v.numerator * D // v.denominator for v in general.values()]
        factors = [prod(map(pow, a, row)) * D ** (dmax - sum(row)) for row in rows]
        rest = VariableSet(n for n in self.vars.names if n not in values)
        return self._reindexed(QQ if D != 1 else self.ring, rest, keep, factors if general else None, D**dmax)

    def coefficient_of(self, exps: Mapping[str, int], subset: Iterable[str]) -> "Polynomial":
        """The polynomial in the remaining variables multiplying exactly the
        monomial `exps` of the designated `subset` variables.

        Extracting with an all-zero exponent map returns the part of the
        polynomial free of the subset variables.
        """
        subset = tuple(subset)
        for name in exps:
            if name not in subset:
                raise VariableMismatch(f"{name!r} is not in the designated subset")
        columns = [self.vars.index(n) for n in subset]
        required = [exps.get(n, 0) for n in subset]
        if not all(0 <= e <= _MAX_EXP for e in required):
            raise PolyError(f"exponents {required} outside [0, {_MAX_EXP}]")
        keep = (self.exponents()[:, columns] == np.array(required, np.uint8)).all(axis=1)
        rest = VariableSet(n for n in self.vars.names if n not in subset)
        return self._reindexed(self.ring, rest, keep)

    def substitute(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Exact composition: every variable this polynomial uses is replaced
        by its binding, and the result lives in the variable set that all the
        binding polynomials share.  An unbound used variable raises
        VariableMismatch; variables are fixed to scalars with restrict.  An
        empty binding map returns the polynomial unchanged.

        The composition is one fraction-free multivariate Horner evaluation,
        and it is exact.  Let D be the lcm of the denominators of the
        bindings the terms use, L that of this polynomial's coefficients, |e|
        the degree of a term c*x^e and dmax the largest |e|.  Since
        prod((D*v)^e) = D^|e| * prod(v^e),

            sum c * prod(v^e) = sum (c*L) * D^(dmax-|e|) * prod((D*v)^e) / (L * D^dmax),

        and every c*L, every power of D and every D*v is integral: the
        numerator is a ZZ polynomial built from ZZ products only, and each of
        its coefficients is divided once, by L * D^dmax (1 over ZZ).  A
        one-term binding v = c*y^a (x -> x among them) has (D*v)^e =
        (D*c)^e * y^(e*a): it enters each term as an int power in its
        coefficient and the key multiple e * key(y^a) in its key, with no
        Horner level, as keys add like exponent vectors while no exponent
        passes 255.  Over the other bindings, largest first, the numerator is
        summed as sum_e (D*v1)^e * inner_e, grouping the terms by their
        exponent of the first, and each inner_e the same way in the bindings
        after it: this only reassociates a finite sum of the same products,
        and the largest powers multiply once per exponent.  Each
        (D*v1)^e * inner_e is added straight into the sum by the product
        kernel; a group of one term adds its product of cached powers times
        its folded monomial.  Every addition passes mul's guard with the bound
        sum(e_i * maxexp(v_i)) of what it multiplies, folded monomials
        included, so a composition whose terms' bounds exceed 255 is refused
        as the term-by-term product would be, before a carry can corrupt a
        key."""
        if not bindings:
            return self
        for name, v in bindings.items():
            self.vars.index(name)
            if not isinstance(v, Polynomial):
                raise PolyError(f"scalar binding for {name!r}: fix variables with restrict")
        for name in self.vars.names:
            if name not in bindings and self.max_exponent(name):
                raise VariableMismatch(f"variable {name!r} is used but not bound")
        target = next(iter(bindings.values())).vars
        if any(v.vars != target for v in bindings.values()):
            raise VariableMismatch("binding polynomials use different variable sets")
        ring = reduce(unify_rings, (v.ring for v in bindings.values()), self.ring)

        # the bound variables the terms use, the Horner ones largest binding
        # first (ties in variable order), the one-term ones from h on; each
        # term as (its exponents in them, its numerator over L * D^dmax times
        # its folded int powers, its folded key, its bounds from variable j on)
        exps = self.exponents()
        size = {i: len(bindings[self.vars.names[i]]) for i in np.flatnonzero(exps.any(axis=0)).tolist()}
        cols = sorted(size, key=lambda i: (size[i] == 1, -size[i]))
        leaves = [bindings[self.vars.names[i]] for i in cols]
        h = sum(size[i] != 1 for i in cols)
        D = lcm(*(v.numerators()[0] for v in leaves))
        keys = [next(iter(v.terms)) for v in leaves[h:]]
        coeffs = [n * D // Lv for Lv, (n,) in (v.numerators() for v in leaves[h:])]
        caps = [v.maxexp for v in reversed(leaves)]
        L, numerators = self.numerators()
        rows = exps[:, cols].tolist()
        dmax = max(map(sum, rows), default=0)
        terms = sorted(
            (row, a * D ** (dmax - sum(row)) * prod(map(pow, coeffs, row[h:])),
             sum(map(operator.mul, keys, row[h:])),
             [*accumulate(map(operator.mul, row[::-1], caps), initial=0)][::-1])
            for row, a in zip(rows, numerators)
        )

        def cap(group: list, j: int) -> int:
            return max((t[3][j] for t in group), default=0)

        powers = [[None, _scaled(v, D)] for v in leaves[:h]]

        def power(j: int, e: int) -> Polynomial:
            lst = powers[j]
            while len(lst) <= e:
                lst.append(lst[-1].mul(lst[1]))
            return lst[e]

        def horner(terms: list, j: int, acc: dict):
            """Add sum(a * x^k * prod(power(i, e_i) for j <= i < h)) over the
            terms into acc; the terms share their exponents before j and are
            sorted, so the last has the largest exponent at j: a column
            where it has none adds no level."""
            while j < h and not terms[-1][0][j]:
                j += 1
            if len(terms) == 1 or j == h:
                for row, a, k, bound in terms:
                    factors = [power(i, row[i]) for i in range(j, h) if row[i]]
                    product = reduce(Polynomial.mul, factors).terms.items() if factors else _UNIT
                    _add_products(acc, a, product, ((k, 1),), bound[j])
                return
            for e, group in groupby(terms, key=lambda t: t[0][j]):
                group = list(group)
                if not e:
                    horner(group, j + 1, acc)
                    continue
                inner: dict = {}
                horner(group, j + 1, inner)
                inner = [(k, c) for k, c in inner.items() if c]
                outer = power(j, e)
                _add_products(acc, 1, outer.terms.items(), inner, outer.maxexp + cap(group, j + 1))

        acc: dict = {}
        horner(terms, 0, acc)
        den = L * D ** dmax
        if ring == QQ:
            out = {k: Fraction(c, den) for k, c in acc.items() if c}
        else:
            out = {k: c for k, c in acc.items() if c}
        return Polynomial(ring, target, out, cap(terms, 0))

    def evaluate(self, point: Mapping[str, Coeff]) -> Coeff:
        """Exact value at a point that binds every variable to an int or a
        Fraction (names that are not variables are ignored): the constant
        term of the restriction to the point."""
        for name in self.vars.names:
            if name not in point:
                raise PolyError(f"missing binding for {name!r}")
        return self.restrict({n: point[n] for n in self.vars.names}).coefficient({})

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: graded-lex descending, '^1' and unit
        coefficients omitted, rationals as num/den in lowest terms."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            neg = c < 0
            mag = -c if neg else c
            factors = []
            if mag != 1:
                factors.append(str(mag))
            for name, e in zip(self.vars.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors) if factors else "1"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        if len(self) <= 6:
            return f"Polynomial({self.ring}, {self.text()})"
        return f"Polynomial({self.ring}, {len(self)} terms, degree {self.total_degree()})"
