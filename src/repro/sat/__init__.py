"""SAT solving substrate: CDCL solver and expression-level interface."""

from .interface import Decision, check_satisfiable, check_valid
from .solver import CdclSolver, SatResult

__all__ = [
    "Decision",
    "check_satisfiable",
    "check_valid",
    "CdclSolver",
    "SatResult",
]
