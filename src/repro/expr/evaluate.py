"""Evaluation of expressions under (possibly partial) assignments."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from .ast import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Var,
)


class UnboundVariableError(KeyError):
    """Raised when evaluation reaches a variable missing from the assignment."""


def eval_expr(expr: Expr, assignment: Mapping[str, bool]) -> bool:
    """Evaluate ``expr`` to a Python bool under a total assignment.

    Raises :class:`UnboundVariableError` if a variable is unassigned.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bool(assignment[expr.name])
        except KeyError as exc:
            raise UnboundVariableError(expr.name) from exc
    if isinstance(expr, Not):
        return not eval_expr(expr.operand, assignment)
    if isinstance(expr, And):
        return all(eval_expr(op, assignment) for op in expr.operands)
    if isinstance(expr, Or):
        return any(eval_expr(op, assignment) for op in expr.operands)
    if isinstance(expr, Implies):
        return (not eval_expr(expr.antecedent, assignment)) or eval_expr(
            expr.consequent, assignment
        )
    if isinstance(expr, Iff):
        return eval_expr(expr.left, assignment) == eval_expr(expr.right, assignment)
    if isinstance(expr, Ite):
        if eval_expr(expr.cond, assignment):
            return eval_expr(expr.then, assignment)
        return eval_expr(expr.orelse, assignment)
    raise TypeError(f"cannot evaluate expression node {type(expr).__name__}")


def all_assignments(names) -> Iterator[Dict[str, bool]]:
    """Enumerate every total assignment over the given variable names.

    Names are sorted so the enumeration order is deterministic.  Intended
    for exhaustive checks over small variable sets (the interlock control
    space of a single architecture is typically well under 30 variables).
    Each row is a fresh dict, so callers may keep the yielded mappings.
    """
    ordered = sorted(names)
    count = len(ordered)
    for bits in range(1 << count):
        yield {
            name: bool((bits >> idx) & 1)
            for idx, name in enumerate(ordered)
        }


def _check_enumerable(expr: Expr, max_vars: Optional[int]) -> frozenset:
    names = expr.variables()
    if max_vars is not None and len(names) > max_vars:
        raise ValueError(
            f"refusing to enumerate {len(names)} variables (> {max_vars}); "
            "use the SAT or BDD backend instead"
        )
    return names


def is_tautology_by_enumeration(expr: Expr, max_vars: Optional[int] = 24) -> bool:
    """Decide validity by brute-force enumeration.

    The sweep is bit-parallel (see :mod:`repro.expr.compile`): the
    expression is compiled once to machine-word bitwise operations and 64
    assignments are decided per evaluation.  Intended for tests and small
    control cones; larger formulas should use :mod:`repro.sat` or
    :mod:`repro.bdd`.
    """
    _check_enumerable(expr, max_vars)
    from .compile import bitparallel_tautology

    return bitparallel_tautology(expr)


def is_satisfiable_by_enumeration(expr: Expr, max_vars: Optional[int] = 24) -> bool:
    """Decide satisfiability by brute-force enumeration (small formulas only)."""
    _check_enumerable(expr, max_vars)
    from .compile import bitparallel_satisfiable

    return bitparallel_satisfiable(expr)
