"""High-level decision procedures on expressions backed by the SAT solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..expr.ast import Expr, Not
from ..expr.cnf import to_cnf_clauses
from .solver import CdclSolver, SatResult


@dataclass
class Decision:
    """Result of a decision procedure call with an optional model."""

    answer: bool
    model: Optional[Dict[str, bool]] = None
    stats: Optional[SatResult] = None

    def __bool__(self) -> bool:
        return self.answer


def check_satisfiable(expr: Expr) -> Decision:
    """Is the expression satisfiable?  Returns a model if so."""
    cnf = to_cnf_clauses(expr)
    result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
    if not result.satisfiable:
        return Decision(False, stats=result)
    model = {
        name: result.assignment.get(var_id, False)
        for name, var_id in cnf.var_ids.items()
    }
    return Decision(True, model=model, stats=result)


def check_valid(expr: Expr) -> Decision:
    """Is the expression a tautology?  Returns a counterexample if not."""
    refutation = check_satisfiable(Not(expr))
    if refutation.answer:
        return Decision(False, model=refutation.model, stats=refutation.stats)
    return Decision(True, stats=refutation.stats)

