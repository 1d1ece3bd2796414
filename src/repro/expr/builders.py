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
    """At most one operand holds, e.g. one-hot bus grants and register indicators.

    A balanced split: at most one of ``L ∪ R`` holds iff (at most one of
    ``L`` and none of ``R``) or (none of ``L`` and at most one of ``R``),
    each half's two answers shared.  The DAG has ``4n − 3`` nodes and
    depth ``2·log₂n + 1``.
    """
    items = [coerce(e) for e in exprs]

    def split(low: int, high: int):
        """``(none holds, at most one holds)`` over ``items[low:high]``; None is TRUE."""
        if high - low == 1:
            return Not(items[low]), None
        middle = (low + high) // 2
        none_left, one_left = split(low, middle)
        none_right, one_right = split(middle, high)
        return And(none_left, none_right), Or(
            none_right if one_left is None else And(one_left, none_right),
            none_left if one_right is None else And(none_left, one_right),
        )

    if len(items) < 2:
        return TRUE
    return split(0, len(items))[1]
