"""Exact sparse multivariate polynomial arithmetic.

Coefficients are Python ints (ring ZZ) or fractions.Fraction (ring QQ); there
is no other ring, so the layer works in characteristic 0 and modular
arithmetic lives only in the evaluation kernel of `evalmod`.  A monomial is an
exponent vector over a fixed, ordered variable set; internally it is packed
into a single integer at 8 bits per variable.  Packed keys compare
lexicographically exactly like the exponent vectors they encode, so the
canonical graded-lex term order reduces to integer comparisons, and monomial
multiplication is a single big-int addition.  Per-variable exponents are
bounded by 255; every object built in this project has total degree <= 54, and
products guard the bound through a conservative per-polynomial exponent cap.

Polynomials are immutable after construction and every operation is pure, so
values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]

_FIELD_BITS = 8
_FIELD_MASK = 0xFF
_MAX_EXP = 0xFF


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


def _max_field(key: int) -> int:
    m = 0
    while key:
        f = key & _FIELD_MASK
        if f > m:
            m = f
        key >>= _FIELD_BITS
    return m


class Polynomial:
    """A canonical sparse polynomial: packed monomial -> nonzero coefficient.

    `maxexp` is a conservative upper bound on any single exponent appearing in
    the polynomial; multiplication uses it to guard the packed representation.
    """

    __slots__ = ("ring", "vars", "terms", "maxexp", "_cache")

    def __init__(self, ring: Ring, vars: VariableSet, terms: dict, maxexp: int | None = None):
        self.ring = ring
        self.vars = vars
        self.terms = terms
        if maxexp is None:
            maxexp = max((_max_field(k) for k in terms), default=0)
        self.maxexp = maxexp
        self._cache: dict = {}

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

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

    def sorted_terms(self) -> list:
        """Terms as (exponent tuple, coefficient), graded-lex descending."""
        unpack = self.vars.unpack
        items = [(sum(t := unpack(k)), t, k) for k in self.terms]
        items.sort(key=lambda x: (x[0], x[2]), reverse=True)
        return [(t, self.terms[k]) for _, t, k in items]

    def total_degree(self) -> int:
        unpack = self.vars.unpack
        return max((sum(unpack(k)) for k in self.terms), default=0)

    def degrees(self, weights: Mapping[str, Sequence[int]]) -> set:
        """The set of weighted degree vectors of the terms: a term x^e has
        degree sum(e[name] * weights[name]).  Weights are keyed by variable
        name and share one length; an unlisted variable weighs 0, and a
        weighted name that is not one of the variables raises
        VariableMismatch.  One vector means the polynomial is homogeneous
        under the grading; the zero polynomial has none."""
        if len({len(w) for w in weights.values()}) > 1:
            raise PolyError("weight vectors of different lengths")
        shifts = [self.vars.shift(name) for name in weights]
        # per component, the (shift, weight) pairs of the names that weigh in it
        columns = [
            [(sh, w) for sh, w in zip(shifts, ws) if w]
            for ws in zip(*weights.values())
        ]
        return {
            tuple(sum(((k >> sh) & _FIELD_MASK) * w for sh, w in col) for col in columns)
            for k in self.terms
        }

    def max_exponent(self, name: str) -> int:
        sh = self.vars.shift(name)
        return max(((k >> sh) & _FIELD_MASK for k in self.terms), default=0)

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
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.normalize(other)
            if not c:
                return Polynomial.zero(self.ring, self.vars)
            return Polynomial(self.ring, self.vars, {k: v * c for k, v in self.terms.items()}, self.maxexp)
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Polynomial") -> "Polynomial":
        """Exact product."""
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.ring, self.vars)
        if self.maxexp + other.maxexp > _MAX_EXP:
            raise PolyError("product exceeds the per-variable exponent bound 255")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                c0 = get(k)
                out[k] = c1 * c2 if c0 is None else c0 + c1 * c2
        out = {k: c for k, c in out.items() if c}
        return Polynomial(self.ring, self.vars, out, self.maxexp + other.maxexp)

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
        return self._repacked(new_vars, self.terms.items())

    def _repacked(self, vars: VariableSet, terms: Iterable[tuple]) -> "Polynomial":
        """(key, coefficient) pairs of this polynomial, re-packed over `vars`:
        the exponent of each name that `vars` shares moves to its field there,
        every other field is dropped, and coefficients that meet on one key
        add up.  The callers have accounted for the dropped fields: convert
        checks they are 0, restrict has multiplied them out, coefficient_of
        has matched them."""
        # (old shift, new shift, mask) per run of names adjacent in both sets
        moves: list = []
        for n in vars.names:
            if n not in self.vars:
                continue
            old, new = self.vars.shift(n), vars.shift(n)
            if moves and moves[-1][:2] == (old + _FIELD_BITS, new + _FIELD_BITS):
                moves[-1] = (old, new, (moves[-1][2] << _FIELD_BITS) | _FIELD_MASK)
            else:
                moves.append((old, new, _FIELD_MASK))
        out: dict = {}
        get = out.get
        for k, c in terms:
            nk = 0
            for old, new, mask in moves:
                nk |= ((k >> old) & mask) << new
            c0 = get(nk)
            out[nk] = c if c0 is None else c0 + c
        return Polynomial(self.ring, vars, {k: c for k, c in out.items() if c}, self.maxexp)

    def _without(self, names) -> VariableSet:
        """This polynomial's variables minus `names`, in order."""
        return VariableSet(n for n in self.vars.names if n not in names)

    # -- restriction, extraction, substitution, evaluation ----------------------

    def restrict(self, values: Mapping[str, Coeff]) -> "Polynomial":
        """Fix some variables to ints or Fractions: the polynomial in the
        variables that remain, in their order.  A non-integral value moves a
        ZZ polynomial to QQ."""
        if self.ring != QQ and any(
            isinstance(v, Fraction) and v.denominator != 1 for v in values.values()
        ):
            return self.to_ring(QQ).restrict(values)
        fixed = []
        for name, v in values.items():
            v = self.ring.normalize(v)
            # an integral value multiplies as an int, which is faster than a Fraction
            fixed.append((self.vars.shift(name), v.numerator if v.denominator == 1 else v))
        terms = []
        for k, c in self.terms.items():
            for sh, v in fixed:
                e = (k >> sh) & _FIELD_MASK
                if e:
                    c = c * v ** e
            if c:
                terms.append((k, c))
        return self._repacked(self._without(values), terms)

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
        mask = 0
        for n in subset:
            mask |= _FIELD_MASK << self.vars.shift(n)
        required = 0
        for name, e in exps.items():
            if not 0 <= e <= _MAX_EXP:
                raise PolyError(f"exponent {e} outside [0, {_MAX_EXP}]")
            required |= e << self.vars.shift(name)
        terms = ((k, c) for k, c in self.terms.items() if k & mask == required)
        return self._repacked(self._without(subset), terms)

    def polarize(self, pairs: Iterable[tuple]) -> "Polynomial":
        """The derivation sum(src * d/d dst) over (src, dst) name pairs.

        Each term x^e contributes e_dst * x^e * src / dst per pair, so the
        cost is linear in the term count and no coefficient leaves the ring.
        """
        if self.maxexp >= _MAX_EXP:
            raise PolyError("polarization exceeds the per-variable exponent bound 255")
        moves = []
        for src, dst in pairs:
            sh = self.vars.shift(dst)
            moves.append((sh, (1 << self.vars.shift(src)) - (1 << sh)))
        out: dict = {}
        get = out.get
        for k, c in self.terms.items():
            for sh, delta in moves:
                e = (k >> sh) & _FIELD_MASK
                if e:
                    kk = k + delta
                    c0 = get(kk)
                    out[kk] = c * e if c0 is None else c0 + c * e
        out = {k: c for k, c in out.items() if c}
        return Polynomial(self.ring, self.vars, out, self.maxexp + 1)

    def substitute(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Exact composition: every variable this polynomial uses is replaced
        by its binding, and the result lives in the variable set that all the
        binding polynomials share.  An unbound used variable raises
        VariableMismatch; variables are fixed to scalars with restrict.  An
        empty binding map returns the polynomial unchanged."""
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
        one = Polynomial.constant(ring, target, 1)
        powers: dict = {n: [one, v.to_ring(ring)] for n, v in bindings.items()}
        shifts = [(n, self.vars.shift(n)) for n in bindings]

        def power(name: str, e: int) -> Polynomial:
            lst = powers[name]
            while len(lst) <= e:
                lst.append(lst[-1].mul(lst[1]))
            return lst[e]

        out: dict = {}
        get = out.get
        maxexp_out = 0
        for k, c in self.terms.items():
            factor = one
            for name, sh in shifts:
                e = (k >> sh) & _FIELD_MASK
                if e:
                    q = power(name, e)
                    factor = q if factor is one else factor.mul(q)
            maxexp_out = max(maxexp_out, factor.maxexp)
            for k2, c2 in factor.terms.items():
                cc = get(k2, 0) + c * c2
                if cc:
                    out[k2] = cc
                else:
                    out.pop(k2, None)
        return Polynomial(ring, target, out, maxexp_out)

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
        if len(self.terms) <= 6:
            return f"Polynomial({self.ring}, {self.text()})"
        return f"Polynomial({self.ring}, {len(self.terms)} terms, degree {self.total_degree()})"
