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

        def entry(row, col) -> Polynomial:
            return Polynomial.sum_of_products(self.ring, self.vars, [(1, a, b) for a, b in zip(row, col)])

        cols = list(zip(*other.rows))
        return PolyMatrix([[entry(row, col) for col in cols] for row in self.rows])

    def scale(self, c) -> "PolyMatrix":
        """Multiply every entry by a scalar or a polynomial."""
        return PolyMatrix([[e * c for e in r] for r in self.rows])

    def trace(self) -> Polynomial:
        acc = Polynomial.zero(self.ring, self.vars)
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def determinant(self) -> Polynomial:
        """Exact, division-free determinant (Polynomial.determinant)."""
        if self.n > _DET_DIM_LIMIT:
            raise PolyError(f"determinant supports n <= {_DET_DIM_LIMIT}, got {self.n}")
        return Polynomial.determinant(self.ring, self.vars, self.rows)

    def __repr__(self):
        return f"PolyMatrix({self.n}x{self.n} over {self.ring})"
