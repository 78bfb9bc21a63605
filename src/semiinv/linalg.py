"""Exact Gaussian elimination for small dense systems.

Systems here have at most a dozen unknowns and a few hundred equations: the
correction solves of hwv hand over the distinct rows of their derivation
images (495 for q), some of them still equal up to scale.  Rows are therefore
normalized to coprime integers and deduplicated, then eliminated
fraction-free in ints; only the back substitution, one division per unknown,
takes Fractions.  No floating point anywhere.  This module only solves:
ranks are taken mod p, by evalmod.echelon_mod.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class LinAlgError(Exception):
    pass


class InconsistentSystem(LinAlgError):
    """No solution: a reduced row has zero coefficients but nonzero RHS."""


class UnderdeterminedSystem(LinAlgError):
    """The coefficient matrix does not have full column rank."""


def _normalize_row(coeffs: Sequence, rhs) -> tuple | None:
    """Scale to coprime integers with positive leading entry; None for 0 = 0.

    Integer rows take a gcd and never touch Fractions; a row with a rational
    entry is first cleared of denominators."""
    row = [*coeffs, rhs]
    if not all(isinstance(c, int) for c in row):
        fracs = [Fraction(c) for c in row]
        den = lcm(*(c.denominator for c in fracs))
        row = [int(c * den) for c in fracs]
    g = gcd(*row)
    if g == 0:
        return None
    if next(v for v in row if v) < 0:
        g = -g
    return tuple(v // g for v in row)


def solve_unique(rows: Iterable[tuple], nunknowns: int) -> list:
    """Solve for the unique exact solution of `coeffs . x = rhs` rows.

    Each row is a pair (coefficient sequence, rhs).  Raises
    InconsistentSystem or UnderdeterminedSystem when the system has no or
    several solutions.
    """
    unique = {}
    # exact repeats are dropped before the (costlier) normalization
    for coeffs, rhs in dict.fromkeys((tuple(c), r) for c, r in rows):
        norm = _normalize_row(coeffs, rhs)
        if norm is not None:
            unique[norm] = None

    # fraction-free reduction: pivots maps a column to the integer row whose
    # first nonzero entry is in it.  A pivot row has zeros in every pivot
    # column that existed when it was added, so reducing in increasing
    # column order clears each pivot column for good
    pivots: dict = {}
    width = nunknowns + 1
    for row in unique:
        if len(row) != width:
            raise LinAlgError(f"row of length {len(row)}, expected {width}")
        for col in range(nunknowns):
            if row[col] and col in pivots:
                prow = pivots[col]
                a, b = prow[col], row[col]
                row = [a * x - b * y for x, y in zip(row, prow)]
        lead = next((c for c in range(nunknowns) if row[c]), None)
        if lead is None:
            if row[nunknowns]:
                raise InconsistentSystem("0 = nonzero after reduction")
            continue
        g = gcd(*row)
        pivots[lead] = [v // g for v in row]
    if len(pivots) < nunknowns:
        raise UnderdeterminedSystem(f"rank {len(pivots)} < {nunknowns} unknowns")

    # back substitution: a full-rank pivot row for col has zeros before col
    solution = [Fraction(0)] * nunknowns
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        val = Fraction(row[nunknowns])
        for j in range(col + 1, nunknowns):
            if row[j]:
                val -= row[j] * solution[j]
        solution[col] = val / row[col]
    return solution

