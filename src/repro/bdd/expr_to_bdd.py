"""Compilation of :class:`~repro.expr.ast.Expr` trees into BDDs."""

from __future__ import annotations

from typing import Dict, Optional

from ..expr.ast import And, Const, Expr, Iff, Implies, Ite, Not, Or, Var
from .manager import BddManager


def compile_expr(
    manager: BddManager, expr: Expr, cache: Optional[Dict[Expr, int]] = None
) -> int:
    """Compile an expression into a BDD node in ``manager``.

    Variables are declared on first use in the manager's current order; for
    reproducible node counts declare an explicit order first (see
    :func:`repro.bdd.ordering.register_interleaved_order`).

    A ``cache`` dictionary may be supplied to share compiled sub-expressions
    across calls against the same manager (the property checker does this so
    the environment formula and the derived moe equations are compiled once
    per session rather than once per claim).
    """
    if cache is None:
        cache = {}

    def rec(node: Expr) -> int:
        if node in cache:
            return cache[node]
        if isinstance(node, Const):
            result = manager.true() if node.value else manager.false()
        elif isinstance(node, Var):
            result = manager.var(node.name)
        elif isinstance(node, Not):
            result = manager.not_(rec(node.operand))
        elif isinstance(node, And):
            result = manager.and_all(rec(op) for op in node.operands)
        elif isinstance(node, Or):
            result = manager.or_all(rec(op) for op in node.operands)
        elif isinstance(node, Implies):
            result = manager.implies(rec(node.antecedent), rec(node.consequent))
        elif isinstance(node, Iff):
            result = manager.iff(rec(node.left), rec(node.right))
        elif isinstance(node, Ite):
            result = manager.ite(rec(node.cond), rec(node.then), rec(node.orelse))
        else:
            raise TypeError(f"cannot compile node {type(node).__name__}")
        cache[node] = result
        return result

    return rec(expr)

