"""Exact semi-invariants of 3x3 matrix triples.

Sparse exact polynomial arithmetic, the twelve generating invariants of
triples under the two-sided SL3 action, their single defining relation, the
derived classical cubic invariants, and the specialization to conjugation
invariants of matrix pairs, with every identity machine-verified either by
exact expansion or by randomized evaluation over prime fields.
"""

from .poly import QQ, ZZ, Polynomial, PolyError, Ring, VariableSet
from .matrix import PolyMatrix
from .verify import CheckResult, RunConfig

__all__ = [
    "QQ",
    "ZZ",
    "CheckResult",
    "Polynomial",
    "PolyError",
    "PolyMatrix",
    "Ring",
    "RunConfig",
    "VariableSet",
]

__version__ = "0.1.0"
