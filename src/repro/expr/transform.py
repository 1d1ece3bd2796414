"""Structural transformations: substitution, simplification, polarity."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .ast import (
    And,
    Const,
    Expr,
    FALSE,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    TRUE,
    Var,
    coerce,
)


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions.

    ``mapping`` maps variable names to replacement expressions (or bools /
    strings, which are coerced).  Substitution is simultaneous, not
    sequential: replacements are not re-substituted.

    Shared sub-expressions are substituted once and the result shares their
    rewritten copies, so repeated substitution (for example the fixed-point
    derivation's candidate chain) stays linear in the DAG size instead of
    exploding with the unfolded tree.
    """
    resolved = {name: coerce(value) for name, value in mapping.items()}
    # Memo keyed by node identity; the node reference is kept in the value
    # so an id() is never reused by a collected temporary mid-walk.
    memo: Dict[int, Tuple[Expr, Expr]] = {}

    def rec(node: Expr) -> Expr:
        entry = memo.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        if isinstance(node, Const):
            result = node
        elif isinstance(node, Var):
            result = resolved.get(node.name, node)
        elif isinstance(node, Not):
            result = Not(rec(node.operand))
        elif isinstance(node, And):
            result = And(*(rec(op) for op in node.operands))
        elif isinstance(node, Or):
            result = Or(*(rec(op) for op in node.operands))
        elif isinstance(node, Implies):
            result = Implies(rec(node.antecedent), rec(node.consequent))
        elif isinstance(node, Iff):
            result = Iff(rec(node.left), rec(node.right))
        elif isinstance(node, Ite):
            result = Ite(rec(node.cond), rec(node.then), rec(node.orelse))
        else:
            raise TypeError(f"cannot substitute into {type(node).__name__}")
        memo[id(node)] = (node, result)
        return result

    return rec(expr)


def rename(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename variables according to a name-to-name mapping."""
    return substitute(expr, {old: Var(new) for old, new in mapping.items()})


def eliminate_derived(expr: Expr) -> Expr:
    """Rewrite IMPLIES / IFF / ITE in terms of NOT / AND / OR."""
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        return Not(eliminate_derived(expr.operand))
    if isinstance(expr, And):
        return And(*(eliminate_derived(op) for op in expr.operands))
    if isinstance(expr, Or):
        return Or(*(eliminate_derived(op) for op in expr.operands))
    if isinstance(expr, Implies):
        return Or(Not(eliminate_derived(expr.antecedent)), eliminate_derived(expr.consequent))
    if isinstance(expr, Iff):
        left = eliminate_derived(expr.left)
        right = eliminate_derived(expr.right)
        return Or(And(left, right), And(Not(left), Not(right)))
    if isinstance(expr, Ite):
        cond = eliminate_derived(expr.cond)
        then = eliminate_derived(expr.then)
        orelse = eliminate_derived(expr.orelse)
        return Or(And(cond, then), And(Not(cond), orelse))
    raise TypeError(f"cannot eliminate derived operators in {type(expr).__name__}")


def simplify(expr: Expr, _memo: Optional[Dict[int, Tuple[Expr, Expr]]] = None) -> Expr:
    """Light-weight constant folding, idempotence and complement rules.

    This is a syntactic simplifier (no SAT/BDD reasoning); it is enough to
    keep generated specifications and synthesised RTL readable.  Shared
    sub-expressions are simplified once per call (memoised on identity), so
    simplification of substitution DAGs stays linear in their node count.
    """
    if _memo is None:
        _memo = {}
    entry = _memo.get(id(expr))
    if entry is not None and entry[0] is expr:
        return entry[1]
    result = _simplify_node(expr, _memo)
    _memo[id(expr)] = (expr, result)
    return result


def _simplify_node(expr: Expr, _memo: Dict[int, Tuple[Expr, Expr]]) -> Expr:
    def simplify(node: Expr) -> Expr:  # shadow: recurse with the shared memo
        entry = _memo.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        result = _simplify_node(node, _memo)
        _memo[id(node)] = (node, result)
        return result

    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        inner = simplify(expr.operand)
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(expr, And):
        parts = []
        seen = set()
        for op in expr.operands:
            val = simplify(op)
            if isinstance(val, Const):
                if not val.value:
                    return FALSE
                continue
            sub = val.operands if isinstance(val, And) else (val,)
            for item in sub:
                if item in seen:
                    continue
                seen.add(item)
                parts.append(item)
        for item in parts:
            complement = item.operand if isinstance(item, Not) else Not(item)
            if complement in seen:
                return FALSE
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(*parts)
    if isinstance(expr, Or):
        parts = []
        seen = set()
        for op in expr.operands:
            val = simplify(op)
            if isinstance(val, Const):
                if val.value:
                    return TRUE
                continue
            sub = val.operands if isinstance(val, Or) else (val,)
            for item in sub:
                if item in seen:
                    continue
                seen.add(item)
                parts.append(item)
        for item in parts:
            complement = item.operand if isinstance(item, Not) else Not(item)
            if complement in seen:
                return TRUE
        if not parts:
            return FALSE
        if len(parts) == 1:
            return parts[0]
        return Or(*parts)
    if isinstance(expr, Implies):
        ante = simplify(expr.antecedent)
        cons = simplify(expr.consequent)
        if isinstance(ante, Const):
            return cons if ante.value else TRUE
        if isinstance(cons, Const):
            return TRUE if cons.value else simplify(Not(ante))
        if ante == cons:
            return TRUE
        return Implies(ante, cons)
    if isinstance(expr, Iff):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if left == right:
            return TRUE
        if isinstance(left, Const):
            return right if left.value else simplify(Not(right))
        if isinstance(right, Const):
            return left if right.value else simplify(Not(left))
        return Iff(left, right)
    if isinstance(expr, Ite):
        cond = simplify(expr.cond)
        then = simplify(expr.then)
        orelse = simplify(expr.orelse)
        if isinstance(cond, Const):
            return then if cond.value else orelse
        if then == orelse:
            return then
        return Ite(cond, then, orelse)
    raise TypeError(f"cannot simplify {type(expr).__name__}")


def polarity_of_variables(expr: Expr) -> Dict[str, Tuple[bool, bool]]:
    """Compute the polarity with which each variable occurs.

    Returns a mapping from variable name to a pair
    ``(occurs_positively, occurs_negatively)``.  A formula built from a
    variable using only AND / OR (no negation on that variable's path) is
    monotonically non-decreasing in it — the property the paper requires of
    the stall-condition functions ``F`` (Section 3.1).
    """
    expr = eliminate_derived(expr)
    polarities: Dict[str, Tuple[bool, bool]] = {}

    def note(name: str, positive: bool) -> None:
        pos, neg = polarities.get(name, (False, False))
        if positive:
            pos = True
        else:
            neg = True
        polarities[name] = (pos, neg)

    def rec(node: Expr, negated: bool) -> None:
        if isinstance(node, Const):
            return
        if isinstance(node, Var):
            note(node.name, not negated)
            return
        if isinstance(node, Not):
            rec(node.operand, not negated)
            return
        if isinstance(node, (And, Or)):
            for op in node.operands:
                rec(op, negated)
            return
        raise TypeError(f"unexpected node after eliminate_derived: {type(node).__name__}")

    rec(expr, False)
    return polarities
