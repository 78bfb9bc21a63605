"""Square matrices with polynomial entries and division-free determinants."""

from __future__ import annotations

from typing import Sequence

from .poly import Polynomial, PolyError, Ring, VariableSet

_DET_DIM_LIMIT = 9


class PolyMatrix:
    """An n x n matrix of polynomials over one shared ring and variable set."""

    __slots__ = ("n", "rows", "ring", "vars")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PolyError("matrix must be square and non-empty")
        first = rows[0][0]
        for r in rows:
            for e in r:
                if e.ring != first.ring or e.vars != first.vars:
                    raise PolyError("matrix entries must share ring and variable set")
        self.n = n
        self.rows = rows
        self.ring = first.ring
        self.vars = first.vars

    @classmethod
    def from_names(cls, ring: Ring, vars: VariableSet, names: Sequence[Sequence[str]]) -> "PolyMatrix":
        return cls([[Polynomial.variable(ring, vars, nm) for nm in row] for row in names])

    @classmethod
    def from_scalars(cls, ring: Ring, vars: VariableSet, values) -> "PolyMatrix":
        return cls([[Polynomial.constant(ring, vars, v) for v in row] for row in values])

    @classmethod
    def identity(cls, ring: Ring, vars: VariableSet, n: int) -> "PolyMatrix":
        return cls.from_scalars(ring, vars, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ring: Ring, vars: VariableSet, n: int) -> "PolyMatrix":
        z = Polynomial.zero(ring, vars)
        return cls([[z] * n for _ in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise PolyError("dimension mismatch")
        return PolyMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(-1)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        if self.n != other.n:
            raise PolyError("dimension mismatch")
        n = self.n
        cols = [[other.rows[k][j] for k in range(n)] for j in range(n)]
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Polynomial.zero(self.ring, self.vars)
                for a, b in zip(self.rows[i], cols[j]):
                    if a.terms and b.terms:
                        acc = acc + a.mul(b)
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def scale(self, c) -> "PolyMatrix":
        """Multiply every entry by a scalar or a polynomial."""
        if isinstance(c, Polynomial):
            return PolyMatrix([[e.mul(c) if e.terms else e for e in r] for r in self.rows])
        return PolyMatrix([[e * c for e in r] for r in self.rows])

    def trace(self) -> Polynomial:
        acc = Polynomial.zero(self.ring, self.vars)
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in r] for r in self.rows])

    def determinant(self) -> Polynomial:
        """Exact determinant by minor expansion with dynamic programming over
        column subsets; division-free and skipping zero entries, so sparse
        block matrices cost far less than n! Leibniz terms."""
        n = self.n
        if n > _DET_DIM_LIMIT:
            raise PolyError(f"determinant supports n <= {_DET_DIM_LIMIT}, got {n}")
        ring, vs = self.ring, self.vars
        # states: column subset (bitmask) -> raw term dict for the minor of
        # the first popcount(mask) rows on those columns
        states = {0: {0: ring.normalize(1)}}
        for k in range(n):
            row = self.rows[k]
            new_states: dict = {}
            for mask, terms in states.items():
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    entry = row[j]
                    if not entry.terms:
                        continue
                    sign = -1 if (k + (mask & (bit - 1)).bit_count()) & 1 else 1
                    acc = new_states.setdefault(mask | bit, {})
                    get = acc.get
                    for k1, c1 in terms.items():
                        for k2, c2 in entry.terms.items():
                            kk = k1 + k2
                            cc = sign * c1 * c2
                            c0 = get(kk)
                            acc[kk] = cc if c0 is None else c0 + cc
            states = {
                m: {k: c for k, c in t.items() if c} for m, t in new_states.items()
            }
        final = states.get((1 << n) - 1, {})
        return Polynomial(ring, vs, final)

    def __repr__(self):
        return f"PolyMatrix({self.n}x{self.n} over {self.ring})"
