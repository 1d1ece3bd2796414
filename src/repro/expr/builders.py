"""Convenience constructors for building large specification formulas."""

from __future__ import annotations

from typing import Iterable, Sequence

from .ast import FALSE, TRUE, And, Expr, Not, Or, Var, coerce


def var(name: str) -> Var:
    """Create a boolean variable."""
    return Var(name)


def big_and(exprs: Iterable[Expr]) -> Expr:
    """Conjunction of an iterable of expressions; empty iterable gives TRUE."""
    items = [coerce(e) for e in exprs]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(*items)


def big_or(exprs: Iterable[Expr]) -> Expr:
    """Disjunction of an iterable of expressions; empty iterable gives FALSE."""
    items = [coerce(e) for e in exprs]
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(*items)


def at_most_one(exprs: Sequence[Expr]) -> Expr:
    """Pairwise at-most-one constraint, used e.g. for one-hot bus grants."""
    items = [coerce(e) for e in exprs]
    clauses = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            clauses.append(Not(And(items[i], items[j])))
    return big_and(clauses)
