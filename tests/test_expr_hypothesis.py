"""Property-based tests for the expression substrate.

A random-expression strategy drives cross-checks between the independent
implementations of the same semantics: direct evaluation, simplification,
NNF conversion, Tseitin CNF + SAT, and the BDD compiler.
"""

from hypothesis import given, settings, strategies as st

from repro.expr import (
    And,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    all_assignments,
    eval_expr,
    parse_expr,
    simplify,
    substitute,
    to_cnf_clauses,
    to_text,
)
from repro.sat import CdclSolver
from repro.symbolic import SymbolicContext

VARIABLE_NAMES = ["a", "b", "c", "d", "e"]


def expressions(max_leaves: int = 12):
    """Hypothesis strategy producing random expressions over a small alphabet."""
    leaves = st.sampled_from([Var(name) for name in VARIABLE_NAMES])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
            st.tuples(children, children).map(lambda pair: Implies(*pair)),
            st.tuples(children, children).map(lambda pair: Iff(*pair)),
        ),
        max_leaves=max_leaves,
    )


def brute_force_models(expr):
    names = sorted(expr.variables())
    return [a for a in all_assignments(names) if eval_expr(expr, a)]


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_simplify_preserves_semantics(expr):
    simplified = simplify(expr)
    for assignment in all_assignments(expr.variables()):
        assert eval_expr(expr, assignment) == eval_expr(simplified, assignment)


@settings(max_examples=60, deadline=None)
@given(expressions())
def test_text_roundtrip(expr):
    assert parse_expr(to_text(expr)) == expr


@settings(max_examples=40, deadline=None)
@given(expressions(max_leaves=8))
def test_tseitin_equisatisfiable_with_enumeration(expr):
    cnf = to_cnf_clauses(expr)
    sat = bool(CdclSolver(cnf.num_vars, cnf.clauses).solve())
    assert sat == bool(brute_force_models(expr))


@settings(max_examples=40, deadline=None)
@given(expressions(max_leaves=8))
def test_bdd_agrees_with_enumeration(expr):
    context = SymbolicContext()
    node = context.lift(expr).node
    for assignment in all_assignments(expr.variables()):
        expected = eval_expr(expr, assignment)
        if context.manager.support(node):
            assert context.manager.evaluate(node, assignment) == expected
        else:
            assert context.manager.is_true(node) == expected


@settings(max_examples=40, deadline=None)
@given(expressions(max_leaves=8), st.sampled_from(VARIABLE_NAMES), st.booleans())
def test_substitution_of_constant_matches_restricted_evaluation(expr, name, value):
    from repro.expr import TRUE, FALSE

    substituted = substitute(expr, {name: TRUE if value else FALSE})
    for assignment in all_assignments(expr.variables() | {name}):
        forced = dict(assignment)
        forced[name] = value
        assert eval_expr(substituted, assignment) == eval_expr(expr, forced)


@settings(max_examples=40, deadline=None)
@given(expressions(max_leaves=8))
def test_double_simplify_is_idempotent(expr):
    once = simplify(expr)
    assert simplify(once) == once
