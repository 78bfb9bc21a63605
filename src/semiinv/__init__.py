"""Exact semi-invariants of 3x3 matrix triples.

Sparse exact polynomial arithmetic, the twelve generating invariants of
triples under the two-sided SL3 action, their single defining relation, the
derived classical cubic invariants, and the specialization to conjugation
invariants of matrix pairs, with every identity machine-verified either by
exact expansion or by randomized evaluation over prime fields.
"""

from .poly import QQ, ZZ, BudgetExceeded, Polynomial, PolyError, Ring, VariableSet
from .matrix import PolyMatrix, block_matrix
from .verify import CheckResult, RunConfig

__all__ = [
    "QQ",
    "ZZ",
    "BudgetExceeded",
    "CheckResult",
    "Polynomial",
    "PolyError",
    "PolyMatrix",
    "Ring",
    "RunConfig",
    "VariableSet",
    "block_matrix",
]

__version__ = "0.1.0"
