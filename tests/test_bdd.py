"""Tests for the ROBDD manager, the expression compiler and the ordering helpers."""

import inspect

import pytest

from repro.bdd import (
    BddManager,
    compile_expr,
    interleaved_order,
    occurrence_order,
    order_from_exprs,
    stage_major_order,
)
from repro.expr import And, Iff, Implies, Not, Or, Var, all_assignments, eval_expr, vars_
from repro.symbolic import SymbolicContext


class TestManagerBasics:
    def test_terminals(self):
        manager = BddManager()
        assert manager.is_true(manager.true())
        assert manager.is_false(manager.false())
        assert manager.true() != manager.false()

    def test_variable_nodes_are_canonical(self):
        manager = BddManager()
        assert manager.var("x") == manager.var("x")
        assert manager.var("x") != manager.var("y")

    def test_declare_is_idempotent(self):
        manager = BddManager()
        level = manager.declare("x")
        assert manager.declare("x") == level
        assert manager.level_of("x") == level
        assert manager.var_at_level(level) == "x"

    def test_explicit_order_respected(self):
        manager = BddManager(variable_order=["b", "a"])
        assert manager.variable_order() == ["b", "a"]
        assert manager.level_of("b") < manager.level_of("a")

    def test_negation_is_involution(self):
        manager = BddManager()
        x = manager.var("x")
        assert manager.not_(manager.not_(x)) == x

    def test_and_or_reduce_to_terminals(self):
        manager = BddManager()
        x = manager.var("x")
        assert manager.and_(x, manager.false()) == manager.false()
        assert manager.and_(x, manager.true()) == x
        assert manager.or_(x, manager.true()) == manager.true()
        assert manager.or_(x, manager.false()) == x
        assert manager.and_(x, manager.not_(x)) == manager.false()
        assert manager.or_(x, manager.not_(x)) == manager.true()

    def test_equivalence_is_canonical(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        demorgan_left = manager.not_(manager.and_(x, y))
        demorgan_right = manager.or_(manager.not_(x), manager.not_(y))
        assert manager.equivalent(demorgan_left, demorgan_right)

    def test_xor_iff_implies(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        assert manager.equivalent(manager.not_(manager.xor(x, y)), manager.iff(x, y))
        assert manager.equivalent(
            manager.implies(x, y), manager.or_(manager.not_(x), y)
        )

    def test_and_all_or_all(self):
        manager = BddManager()
        nodes = [manager.var(name) for name in "abc"]
        conjunction = manager.and_all(nodes)
        disjunction = manager.or_all(nodes)
        assert manager.evaluate(conjunction, {"a": True, "b": True, "c": True})
        assert not manager.evaluate(conjunction, {"a": True, "b": False, "c": True})
        assert manager.evaluate(disjunction, {"a": False, "b": False, "c": True})
        assert not manager.evaluate(disjunction, {"a": False, "b": False, "c": False})


class TestManagerOperations:
    def test_restrict(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        f = manager.and_(x, y)
        assert manager.restrict(f, "x", True) == y
        assert manager.restrict(f, "x", False) == manager.false()

    def test_compose(self):
        manager = BddManager()
        x, y, z = manager.var("x"), manager.var("y"), manager.var("z")
        f = manager.or_(x, y)
        composed = manager.compose(f, "x", manager.and_(y, z))
        expected = manager.or_(manager.and_(y, z), y)
        assert composed == expected

    def test_compose_many_is_simultaneous(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        f = manager.and_(x, manager.not_(y))
        swapped = manager.compose_many(f, {"x": y, "y": x})
        expected = manager.and_(y, manager.not_(x))
        assert swapped == expected

    def test_compose_with_earlier_levels_stays_canonical(self):
        # Regression: substituting a function whose variables sit at
        # *earlier* levels than the composed node used to build out-of-order
        # nodes, silently breaking canonicity (equal functions stopped
        # sharing one node, which defeats pointer-equality checks).
        manager = BddManager(["a", "b", "rtm", "m"])
        f = manager.and_(manager.var("rtm"), manager.not_(manager.var("m")))
        g = manager.and_(manager.var("a"), manager.var("b"))
        composed = manager.compose(f, "m", g)
        expected = manager.and_(manager.var("rtm"), manager.not_(g))
        assert composed == expected
        composed_many = manager.compose_many(f, {"m": g})
        assert composed_many == expected

    def test_and_exists_is_fused_relational_product(self):
        manager = BddManager()
        x, y, z = manager.var("x"), manager.var("y"), manager.var("z")
        transition = manager.and_(x, manager.or_(y, z))
        constraint = manager.implies(y, z)
        fused = manager.and_exists(transition, constraint, ["y"])
        unfused = manager.exists(manager.and_(transition, constraint), ["y"])
        assert fused == unfused
        assert manager.and_exists(x, manager.not_(x), ["x"]) == manager.false()

    def test_and_exists_degenerates_to_conjunction(self):
        # Regression: when every quantified level sits above both operand
        # cones, the fused product normalises to a plain AND task; that
        # packed key must be dispatched to the binary apply loop, not the
        # quantification expander.
        manager = BddManager(["q", "x", "y"])
        x, y = manager.var("x"), manager.var("y")
        f = manager.or_(x, y)
        g = manager.implies(x, y)
        assert manager.and_exists(f, g, ["q"]) == manager.and_(f, g)

    def test_exists_forall(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        f = manager.and_(x, y)
        assert manager.exists(f, ["x"]) == y
        assert manager.forall(f, ["x"]) == manager.false()
        g = manager.or_(x, y)
        assert manager.exists(g, ["x"]) == manager.true()
        assert manager.forall(g, ["x"]) == y

    def test_evaluate_requires_assignment(self):
        manager = BddManager()
        f = manager.and_(manager.var("x"), manager.var("y"))
        with pytest.raises(KeyError):
            manager.evaluate(f, {"x": True})

    def test_support(self):
        manager = BddManager()
        x, y, z = manager.var("x"), manager.var("y"), manager.var("z")
        f = manager.ite(x, y, y)  # z unused, y only
        assert manager.support(f) == frozenset({"y"})
        assert manager.support(manager.and_(x, z)) == frozenset({"x", "z"})
        assert manager.support(manager.true()) == frozenset()

    def test_sat_count(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        assert manager.sat_count(manager.and_(x, y)) == 1
        assert manager.sat_count(manager.or_(x, y)) == 3
        assert manager.sat_count(manager.true(), over=["x", "y"]) == 4
        assert manager.sat_count(manager.false(), over=["x", "y"]) == 0
        assert manager.sat_count(x, over=["x", "y"]) == 2

    def test_sat_count_requires_support_subset(self):
        manager = BddManager()
        f = manager.and_(manager.var("x"), manager.var("y"))
        with pytest.raises(ValueError):
            manager.sat_count(f, over=["x"])

    def test_pick_one(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        f = manager.and_(x, manager.not_(y))
        model = manager.pick_one(f)
        assert model == {"x": True, "y": False}
        assert manager.pick_one(manager.false()) is None

    def test_all_sat(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        f = manager.or_(x, y)
        models = list(manager.all_sat(f, over=["x", "y"]))
        assert len(models) == 3
        assert {"x": False, "y": False} not in models

    def test_dag_size(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        assert manager.dag_size(manager.true()) == 0
        assert manager.dag_size(x) == 1
        assert manager.dag_size(manager.and_(x, y)) == 2


class TestKernelLifecycle:
    """Public-API smoke tests for GC and the health counters.

    The heavier invariants (sweep hooks, the reference cross-check) live
    in ``test_bdd_array_kernel.py``.
    """

    def test_gc_keeps_protected_functions(self):
        manager = BddManager()
        x, y = manager.var("x"), manager.var("y")
        kept = manager.protect(manager.xor(x, y))
        manager.iff(x, y)  # garbage
        reclaimed = manager.gc()
        assert reclaimed > 0
        assert manager.evaluate(kept, {"x": True, "y": False})
        assert not manager.evaluate(kept, {"x": True, "y": True})

    def test_stats_snapshot(self):
        manager = BddManager()
        manager.and_(manager.var("a"), manager.var("b"))
        stats = manager.stats()
        assert stats.live_nodes == manager.num_nodes()
        assert stats.num_vars == 2
        assert stats.gc_runs == 0
        assert "unique table:" in stats.describe()

    def test_constructor_takes_only_an_order_and_the_reduce_shape(self):
        parameters = inspect.signature(BddManager.__init__).parameters
        assert list(parameters) == ["self", "variable_order", "balanced_reduce"]
        assert parameters["balanced_reduce"].kind is inspect.Parameter.KEYWORD_ONLY
        for retired in ("use_numpy", "auto_reorder_threshold"):
            with pytest.raises(TypeError):
                BddManager(["a"], **{retired: True})

    @pytest.mark.parametrize("connective", ["and_all", "or_all"])
    def test_balanced_and_sequential_reduce_agree(self, connective):
        names = [f"x{i}" for i in range(6)]
        results = []
        for balanced in (False, True):
            manager = BddManager(names, balanced_reduce=balanced)
            operands = [
                manager.xor(manager.var(names[i]), manager.var(names[(i + 2) % 6]))
                for i in range(4)
            ]
            node = getattr(manager, connective)(operands)
            results.append(
                [manager.evaluate(node, a) for a in all_assignments(names)]
            )
        assert results[0] == results[1]
        assert any(results[0]) and not all(results[0])


class TestExprCompiler:
    def test_compile_matches_evaluation(self):
        a, b, c = vars_("a", "b", "c")
        expr = Iff(Implies(a, b), Or(Not(c), And(a, b)))
        manager = BddManager()
        node = compile_expr(manager, expr)
        for assignment in all_assignments(["a", "b", "c"]):
            assert manager.evaluate(node, assignment) == eval_expr(expr, assignment)

    def test_lifted_satisfiability(self):
        a, b = vars_("a", "b")
        context = SymbolicContext()
        assert context.lift(And(a, b)).is_satisfiable()
        assert not context.lift(And(a, Not(a))).is_satisfiable()

    def test_lifted_counterexample_and_witness(self):
        a, b = vars_("a", "b")
        context = SymbolicContext()
        counterexample = context.lift(Implies(a, b)).counterexample()
        assert counterexample is not None
        assert counterexample["a"] is True and counterexample["b"] is False
        assert context.lift(Or(a, Not(a))).counterexample() is None
        witness = context.lift(And(a, Not(b))).pick_one()
        assert witness == {"a": True, "b": False}
        assert context.lift(And(a, Not(a))).pick_one() is None


class TestOrdering:
    def test_order_from_exprs_is_sorted(self):
        a, b, z = vars_("a", "b", "z")
        assert order_from_exprs([z & a, b]) == ["a", "b", "z"]

    def test_occurrence_order_keeps_first_appearance(self):
        a, b, c = vars_("a", "b", "c")
        assert occurrence_order([c & a, b | a]) == ["c", "a", "b"]

    def test_interleaved_order(self):
        assert interleaved_order([["a1", "a2"], ["b1", "b2", "b3"]]) == [
            "a1",
            "b1",
            "a2",
            "b2",
            "b3",
        ]

    def test_stage_major_order_deduplicates(self):
        order = stage_major_order([["x", "y"], ["y", "z"]])
        assert order == ["x", "y", "z"]
