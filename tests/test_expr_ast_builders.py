"""Tests for the expression AST and the convenience builders."""

import pytest

from repro.expr import (
    And,
    Const,
    FALSE,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    TRUE,
    Var,
    at_most_one,
    big_and,
    big_or,
    coerce,
    eval_expr,
    var,
    variables_of,
)


class TestConstructors:
    def test_var_requires_nonempty_name(self):
        with pytest.raises(ValueError):
            Var("")

    def test_var_requires_string(self):
        with pytest.raises(ValueError):
            Var(3)

    def test_const_identity(self):
        assert TRUE == Const(True)
        assert FALSE == Const(False)
        assert TRUE != FALSE

    def test_vars_returns_tuple_of_vars(self):
        a, b, c = map(Var, "abc")
        assert a == Var("a") and b == Var("b") and c == Var("c")

    def test_var_helper(self):
        assert var("x") == Var("x")

    def test_coerce_bool_and_string(self):
        assert coerce(True) == TRUE
        assert coerce(False) == FALSE
        assert coerce("sig") == Var("sig")

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            coerce(3.14)

    def test_expr_has_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(Var("a"))


class TestOperatorOverloads:
    def test_and_operator(self):
        a, b = map(Var, "ab")
        assert (a & b) == And(a, b)

    def test_or_operator(self):
        a, b = map(Var, "ab")
        assert (a | b) == Or(a, b)

    def test_invert_operator(self):
        a = Var("a")
        assert ~a == Not(a)

    def test_xor_expands_to_disjunction_of_conjunctions(self):
        a, b = map(Var, "ab")
        xor = a ^ b
        assert eval_expr(xor, {"a": True, "b": False})
        assert eval_expr(xor, {"a": False, "b": True})
        assert not eval_expr(xor, {"a": True, "b": True})
        assert not eval_expr(xor, {"a": False, "b": False})

    def test_implies_and_iff_methods(self):
        a, b = map(Var, "ab")
        assert a.implies(b) == Implies(a, b)
        assert a.iff(b) == Iff(a, b)

    def test_ite_method(self):
        a, b, c = map(Var, "abc")
        assert a.ite(b, c) == Ite(a, b, c)

    def test_operators_coerce_strings(self):
        a = Var("a")
        assert (a & "b") == And(a, Var("b"))
        assert ("b" | a) == Or(Var("b"), a)


class TestStructure:
    def test_nary_flattening(self):
        a, b, c = map(Var, "abc")
        assert And(And(a, b), c) == And(a, b, c)
        assert Or(a, Or(b, c)) == Or(a, b, c)

    def test_nary_requires_operands(self):
        with pytest.raises(ValueError):
            And()

    def test_children(self):
        a, b = map(Var, "ab")
        assert Not(a).children() == (a,)
        assert Implies(a, b).children() == (a, b)
        assert Iff(a, b).children() == (a, b)
        assert Ite(a, b, a).children() == (a, b, a)
        assert a.children() == ()

    def test_variables(self):
        a, b, c = map(Var, "abc")
        expr = (a & ~b) | (c.implies(a))
        assert expr.variables() == frozenset({"a", "b", "c"})

    def test_variables_of_many(self):
        a, b = map(Var, "ab")
        assert variables_of([a, ~b]) == frozenset({"a", "b"})

    def test_size_and_depth(self):
        a, b = map(Var, "ab")
        expr = And(a, Not(b))
        assert expr.size() == 4
        assert expr.depth() == 3
        assert a.size() == 1 and a.depth() == 1

    def test_walk_visits_every_node(self):
        a, b = map(Var, "ab")
        expr = Or(And(a, b), Not(a))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds.count("Var") == 3
        assert "And" in kinds and "Or" in kinds and "Not" in kinds

    def test_equality_and_hash(self):
        a, b = map(Var, "ab")
        assert And(a, b) == And(a, b)
        assert hash(And(a, b)) == hash(And(a, b))
        assert And(a, b) != And(b, a)  # order-sensitive structural equality
        assert len({And(a, b), And(a, b), Or(a, b)}) == 2

    def test_immutability(self):
        a = Var("a")
        with pytest.raises(AttributeError):
            a.name = "b"
        with pytest.raises(AttributeError):
            Not(a).operand = a
        with pytest.raises(AttributeError):
            And(a, a).operands = ()


class TestBuilders:
    def test_big_and_empty_is_true(self):
        assert big_and([]) == TRUE

    def test_big_or_empty_is_false(self):
        assert big_or([]) == FALSE

    def test_big_and_single_passthrough(self):
        a = Var("a")
        assert big_and([a]) is a

    def test_big_and_many(self):
        a, b, c = map(Var, "abc")
        assert big_and([a, b, c]) == And(a, b, c)

    def test_big_or_many(self):
        a, b, c = map(Var, "abc")
        assert big_or([a, b, c]) == Or(a, b, c)

    def test_at_most_one(self):
        a, b, c = map(Var, "abc")
        constraint = at_most_one([a, b, c])
        assert eval_expr(constraint, {"a": True, "b": False, "c": False})
        assert eval_expr(constraint, {"a": False, "b": False, "c": False})
        assert not eval_expr(constraint, {"a": True, "b": True, "c": False})
