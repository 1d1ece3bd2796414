"""Tests for the ROBDD manager and the expression compiler."""

import functools
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager, compile_expr
from repro.expr import And, Iff, Implies, Not, Or, all_assignments, eval_expr, vars_
from repro.symbolic import SymbolicContext


_REDUCE_NAMES = [f"x{i}" for i in range(5)]
# Operand kinds for the reduce/fold check: literals, negated literals,
# constants and xors of two variables.
_REDUCE_OPERANDS = (
    [("var", name) for name in _REDUCE_NAMES]
    + [("not", name) for name in _REDUCE_NAMES]
    + [("const", True), ("const", False)]
    + [("xor", a, b) for a in _REDUCE_NAMES for b in _REDUCE_NAMES if a < b]
)


# Banded operands for the same check: four bands of three variables in
# order, each operand an and/or/xor of two variables of one band or of two
# neighbouring bands (so a band can overlap the next), or a negated literal.
_BAND_NAMES = [f"b{band}_{i}" for band in range(4) for i in range(3)]
_BANDED_OPERANDS = [
    (kind, a, b)
    for kind in ("and", "or", "xor")
    for a in _BAND_NAMES
    for b in _BAND_NAMES
    if a < b and int(b[1]) - int(a[1]) <= 1
] + [("not", name, name) for name in _BAND_NAMES]


def _banded_operand(manager, operand):
    kind, a, b = operand
    x, y = manager.var(a), manager.var(b)
    if kind == "not":
        return manager.not_(x)
    if kind == "and":
        return manager.and_(x, manager.not_(y))
    if kind == "or":
        return manager.or_(x, y)
    return manager.xor(x, y)


def _reduce_operand(manager, operand):
    kind = operand[0]
    if kind == "var":
        return manager.var(operand[1])
    if kind == "not":
        return manager.not_(manager.var(operand[1]))
    if kind == "const":
        return manager.true() if operand[1] else manager.false()
    return manager.xor(manager.var(operand[1]), manager.var(operand[2]))


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

    def test_constructor_takes_only_an_order(self):
        parameters = inspect.signature(BddManager.__init__).parameters
        assert list(parameters) == ["self", "variable_order"]
        for retired in ("use_numpy", "auto_reorder_threshold", "balanced_reduce"):
            with pytest.raises(TypeError):
                BddManager(["a"], **{retired: True})

    @pytest.mark.parametrize("connective", ["and_all", "or_all"])
    @settings(max_examples=60, deadline=None)
    @given(operands=st.lists(st.sampled_from(_REDUCE_OPERANDS), max_size=9))
    def test_reduce_equals_left_fold(self, connective, operands):
        # and_all/or_all combine as a balanced tree; the result must be the
        # same node as the plain left fold of and_/or_.
        manager = BddManager(_REDUCE_NAMES)
        nodes = [_reduce_operand(manager, operand) for operand in operands]
        binary = manager.and_ if connective == "and_all" else manager.or_
        unit = manager.true() if connective == "and_all" else manager.false()
        assert getattr(manager, connective)(nodes) == functools.reduce(binary, nodes, unit)

    @pytest.mark.parametrize("connective", ["and_all", "or_all"])
    @settings(max_examples=80, deadline=None)
    @given(operands=st.lists(st.sampled_from(_BANDED_OPERANDS), max_size=12), data=st.data())
    def test_banded_reduce_equals_left_fold(self, connective, operands, data):
        # Operands in disjoint bands fold bottom-up across the bands and as
        # a tree within each; in any operand order the result must be the
        # same node as the left fold.
        manager = BddManager(_BAND_NAMES)
        nodes = [_banded_operand(manager, operand) for operand in operands]
        nodes = data.draw(st.permutations(nodes))
        binary = manager.and_ if connective == "and_all" else manager.or_
        unit = manager.true() if connective == "and_all" else manager.false()
        assert getattr(manager, connective)(nodes) == functools.reduce(binary, nodes, unit)

    def test_disjoint_bands_are_folded_and_counted(self):
        manager = BddManager(_BAND_NAMES)
        nodes = [
            manager.xor(manager.var(f"b{band}_0"), manager.var(f"b{band}_1"))
            for band in (2, 0, 3, 1)
        ]
        expected = functools.reduce(manager.or_, nodes, manager.false())
        assert manager.or_all(nodes) == expected
        assert manager.stats().bands_folded == 4
        # Fewer than four operands skip the span computation altogether.
        manager.or_all(nodes[:3])
        assert manager.stats().bands_folded == 4
        # The deepest-level memo is keyed on node ids: a sweep drops it.
        assert manager._deepest
        manager.gc()
        assert not manager._deepest


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
