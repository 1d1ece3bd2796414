"""Tests for expression evaluation, substitution and simplification."""

import pytest

from repro.expr import (
    And,
    FALSE,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    TRUE,
    UnboundVariableError,
    Var,
    all_assignments,
    eliminate_derived,
    eval_expr,
    is_satisfiable_by_enumeration,
    is_tautology_by_enumeration,
    polarity_of_variables,
    rename,
    simplify,
    substitute,
)


class TestEvalExpr:
    def test_constants(self):
        assert eval_expr(TRUE, {}) is True
        assert eval_expr(FALSE, {}) is False

    def test_variable_lookup(self):
        assert eval_expr(Var("x"), {"x": True}) is True
        assert eval_expr(Var("x"), {"x": False}) is False

    def test_missing_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            eval_expr(Var("x"), {})

    def test_connectives(self):
        a, b = map(Var, "ab")
        env = {"a": True, "b": False}
        assert eval_expr(Not(b), env)
        assert not eval_expr(And(a, b), env)
        assert eval_expr(Or(a, b), env)
        assert not eval_expr(Implies(a, b), env)
        assert eval_expr(Implies(b, a), env)
        assert not eval_expr(Iff(a, b), env)
        assert eval_expr(Ite(a, a, b), env)
        assert not eval_expr(Ite(b, a, b), env)

    def test_all_assignments_counts(self):
        assignments = list(all_assignments(["x", "y"]))
        assert len(assignments) == 4
        assert {frozenset(a.items()) for a in assignments} == {
            frozenset({("x", False), ("y", False)}),
            frozenset({("x", True), ("y", False)}),
            frozenset({("x", False), ("y", True)}),
            frozenset({("x", True), ("y", True)}),
        }

    def test_tautology_by_enumeration(self):
        a = Var("a")
        assert is_tautology_by_enumeration(Or(a, Not(a)))
        assert not is_tautology_by_enumeration(a)

    def test_satisfiable_by_enumeration(self):
        a = Var("a")
        assert is_satisfiable_by_enumeration(a)
        assert not is_satisfiable_by_enumeration(And(a, Not(a)))

    def test_enumeration_refuses_large_formulas(self):
        big = And(*[Var(f"x{i}") for i in range(30)])
        with pytest.raises(ValueError):
            is_tautology_by_enumeration(big, max_vars=10)


def _fold(expr, values):
    """Constant-fold ``expr`` under values for some of its variables."""
    return simplify(substitute(expr, values))


class TestPartialEval:
    def test_leaves_unbound_variables(self):
        a, b = map(Var, "ab")
        assert _fold(And(a, b), {"a": True}) == b
        assert _fold(And(a, b), {"a": False}) == FALSE

    def test_or_short_circuit(self):
        a, b = map(Var, "ab")
        assert _fold(Or(a, b), {"a": True}) == TRUE
        assert _fold(Or(a, b), {"a": False}) == b

    def test_implies_and_iff(self):
        a, b = map(Var, "ab")
        assert _fold(Implies(a, b), {"a": False}) == TRUE
        assert _fold(Implies(a, b), {"a": True}) == b
        assert _fold(Iff(a, b), {"a": True}) == b
        assert _fold(Iff(a, b), {"b": False}) == Not(a)

    def test_ite_condition_resolution(self):
        a, b, c = map(Var, "abc")
        assert _fold(Ite(a, b, c), {"a": True}) == b
        assert _fold(Ite(a, b, c), {"a": False}) == c


class TestSubstitution:
    def test_substitute_expression(self):
        a, b, c = map(Var, "abc")
        result = substitute(Implies(a, b), {"a": And(b, c)})
        assert result == Implies(And(b, c), b)

    def test_substitution_is_simultaneous(self):
        a, b = map(Var, "ab")
        result = substitute(And(a, b), {"a": b, "b": a})
        assert result == And(b, a)

    def test_substitute_accepts_bools(self):
        a, b = map(Var, "ab")
        assert substitute(And(a, b), {"a": True}) == And(TRUE, b)

    def test_rename(self):
        a, b = map(Var, "ab")
        assert rename(Or(a, Not(b)), {"a": "x", "b": "y"}) == Or(Var("x"), Not(Var("y")))


class TestNormalForms:
    def test_eliminate_derived_removes_implies_iff_ite(self):
        a, b, c = map(Var, "abc")
        lowered = eliminate_derived(Iff(Implies(a, b), Ite(a, b, c)))
        names = {type(node).__name__ for node in lowered.walk()}
        assert names <= {"And", "Or", "Not", "Var", "Const"}

    def test_eliminate_derived_preserves_semantics(self):
        a, b, c = map(Var, "abc")
        original = Iff(Implies(a, b), Ite(a, b, c))
        lowered = eliminate_derived(original)
        for assignment in all_assignments(["a", "b", "c"]):
            assert eval_expr(original, assignment) == eval_expr(lowered, assignment)


class TestSimplify:
    def test_double_negation(self):
        a = Var("a")
        assert simplify(Not(Not(a))) == a

    def test_constant_folding(self):
        a = Var("a")
        assert simplify(And(a, TRUE)) == a
        assert simplify(And(a, FALSE)) == FALSE
        assert simplify(Or(a, FALSE)) == a
        assert simplify(Or(a, TRUE)) == TRUE

    def test_idempotence(self):
        a = Var("a")
        assert simplify(And(a, a)) == a
        assert simplify(Or(a, a)) == a

    def test_complement_rules(self):
        a = Var("a")
        assert simplify(And(a, Not(a))) == FALSE
        assert simplify(Or(a, Not(a))) == TRUE

    def test_implication_simplifications(self):
        a, b = map(Var, "ab")
        assert simplify(Implies(TRUE, a)) == a
        assert simplify(Implies(FALSE, a)) == TRUE
        assert simplify(Implies(a, TRUE)) == TRUE
        assert simplify(Implies(a, FALSE)) == Not(a)
        assert simplify(Implies(a, a)) == TRUE

    def test_iff_simplifications(self):
        a = Var("a")
        assert simplify(Iff(a, a)) == TRUE
        assert simplify(Iff(a, TRUE)) == a
        assert simplify(Iff(a, FALSE)) == Not(a)

    def test_ite_simplifications(self):
        a, b, c = map(Var, "abc")
        assert simplify(Ite(TRUE, b, c)) == b
        assert simplify(Ite(FALSE, b, c)) == c
        assert simplify(Ite(a, b, b)) == b

    def test_simplify_preserves_semantics(self):
        a, b, c = map(Var, "abc")
        original = Or(And(a, Not(a)), Implies(And(b, TRUE), Or(c, FALSE)))
        simplified = simplify(original)
        for assignment in all_assignments(["a", "b", "c"]):
            assert eval_expr(original, assignment) == eval_expr(simplified, assignment)


class TestPolarity:
    def test_positive_and_negative_occurrences(self):
        a, b = map(Var, "ab")
        polarity = polarity_of_variables(And(a, Not(b)))
        assert polarity["a"] == (True, False)
        assert polarity["b"] == (False, True)

    def test_both_polarities(self):
        a = Var("a")
        polarity = polarity_of_variables(Or(a, Not(a)))
        assert polarity["a"] == (True, True)

    def test_implication_flips_antecedent_polarity(self):
        a, b = map(Var, "ab")
        polarity = polarity_of_variables(Implies(a, b))
        assert polarity["a"] == (False, True)
        assert polarity["b"] == (True, False)
