"""Tests for the SymbolicFunction layer (repro.symbolic) and its BDD kernel ops.

The acceptance-critical property lives here: ISOP-materialized expressions
are cross-checked against their BDD nodes with hypothesis — compiling the
materialized minimized cover back into the context must reproduce exactly
the node it came from, and both must agree pointwise with the original
expression on every assignment.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.archs import generate_family, load_architecture
from repro.bdd import register_interleaved_order
from repro.bdd.manager import BddManager, CoverBudgetExceeded
from repro.expr import (
    And,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    all_assignments,
    eval_expr,
)
from repro.spec import build_functional_spec, concrete_most_liberal, symbolic_most_liberal
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


class TestIsopMaterialization:
    @settings(max_examples=120, deadline=None)
    @given(expressions())
    def test_materialized_cover_equivalent_to_node(self, expr):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        materialized = function.to_expr()
        # Pointwise agreement with the original expression ...
        for assignment in all_assignments(VARIABLE_NAMES):
            assert eval_expr(expr, assignment) == eval_expr(materialized, assignment)
        # ... and compiling the cover back must land on the very same node.
        assert context.lift(materialized).node == function.node

    @settings(max_examples=60, deadline=None)
    @given(expressions())
    def test_minimized_cover_polarity_is_consistent(self, expr):
        context = SymbolicContext(VARIABLE_NAMES)
        function = context.lift(expr)
        complemented, cubes = function.minimized_cover()
        rebuilt = context.false()
        for cube in cubes:
            product = context.true()
            for name, polarity in cube.items():
                literal = context.var(name)
                product = product & (literal if polarity else ~literal)
            rebuilt = rebuilt | product
        if complemented:
            rebuilt = ~rebuilt
        assert rebuilt.node == function.node

    def test_materialization_is_cached(self):
        context = SymbolicContext(["a", "b"])
        function = context.lift(Or(Var("a"), Var("b")))
        assert function.to_expr() is function.to_expr()

    def test_constants_materialize_to_constants(self):
        context = SymbolicContext(["a"])
        assert context.true().to_expr() is TRUE
        assert context.false().to_expr() is FALSE

    def test_mostly_true_function_materializes_via_complement(self):
        # ¬(a ∧ b ∧ c ∧ d): 15 of 16 minterms on — the direct SOP needs four
        # cubes, the complement one; the budget race must pick the negation.
        context = SymbolicContext(VARIABLE_NAMES)
        product = And(And(Var("a"), Var("b")), And(Var("c"), Var("d")))
        function = context.lift(Not(product))
        complemented, cubes = function.minimized_cover()
        assert complemented is True
        assert len(cubes) == 1
        assert cubes[0] == {"a": True, "b": True, "c": True, "d": True}

    @pytest.fixture(scope="class")
    def example_derivation(self):
        return symbolic_most_liberal(build_functional_spec(load_architecture("dac2002-example")))

    def test_cover_race_runs_once_per_node_and_negation(self, example_derivation, monkeypatch):
        manager = example_derivation.context.manager
        calls = []
        isop = manager.isop
        monkeypatch.setattr(manager, "isop", lambda *a, **k: calls.append(a) or isop(*a, **k))
        for function in example_derivation.moe_functions.values():
            complemented, cubes = function.minimized_cover()
            if not complemented:
                (~function).minimized_cover()
            # A complement win is already the negation's direct cover, and
            # every second request is a lookup: no ISOP call, no new entry.
            before = (len(manager._isop_cache), len(calls))
            if complemented:
                assert (~function).minimized_cover() == (False, cubes)
            assert function.minimized_cover() == (complemented, cubes)
            (~function).minimized_cover()
            assert (len(manager._isop_cache), len(calls)) == before

    def test_stall_cover_is_the_operand_of_the_complemented_moe_cover(self, example_derivation):
        moe_expressions = example_derivation.moe_expressions
        stall_expressions = example_derivation.stall_expressions()
        complemented = [moe for moe, expr in moe_expressions.items() if isinstance(expr, Not)]
        assert complemented
        for moe in complemented:
            assert stall_expressions[moe] is moe_expressions[moe].operand

    def test_complemented_cover_shares_its_or_in_either_order(self):
        context = SymbolicContext(VARIABLE_NAMES)
        product = context.lift(And(And(Var("a"), Var("b")), And(Var("c"), Var("d"))))
        # Materialize the direct cover first, then the negation's
        # complemented one.
        stall = product.to_expr()
        moe = (~product).to_expr()
        assert isinstance(moe, Not) and moe.operand is stall

    def test_collect_prunes_the_cover_store(self):
        context = SymbolicContext(VARIABLE_NAMES)
        kept = context.lift(Or(And(Var("a"), Var("b")), Var("c")))
        dropped = context.lift(Or(And(Var("d"), Var("e")), And(Var("a"), Not(Var("e")))))
        kept.to_expr()
        negated = context.manager.not_(dropped.node)
        context.to_expr(negated)
        assert negated in context._cover_cache
        del dropped
        assert context.collect() > 0
        var = context.manager._var
        assert var[negated] < 0 and negated not in context._cover_cache
        assert all(var[node] >= 0 for node in context._cover_cache)
        assert kept.node in context._cover_cache

    def test_cover_budget_raises(self):
        manager = BddManager([f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)])
        # The interleaving achilles heel: OR of x_i ∧ y_i cubes.
        node = manager.false()
        for i in range(4):
            node = manager.or_(
                node, manager.and_(manager.var(f"x{i}"), manager.var(f"y{i}"))
            )
        with pytest.raises(CoverBudgetExceeded):
            manager.isop(node, node, max_cubes=2)
        # Without a budget the full cover comes back fine.
        _, cubes = manager.isop(node, node)
        assert len(cubes) == 4


class TestSymbolicFunctionAlgebra:
    def test_context_takes_only_an_order(self):
        with pytest.raises(TypeError):
            SymbolicContext(VARIABLE_NAMES, balanced_reduce=True)

    def test_operations_and_decisions(self):
        context = SymbolicContext(["a", "b", "c"])
        a, b, c = context.var("a"), context.var("b"), context.var("c")
        assert (a & ~a).is_false()
        assert (a | ~a).is_true()
        assert (a ^ b).equivalent((a & ~b) | (~a & b))
        assert a.implies(a | b).is_true()
        assert a.iff(a).is_true()
        assert a.ite(b, c).equivalent((a & b) | (~a & c))
        assert (a & b).evaluate({"a": True, "b": True}) is True
        assert (a & b).support() == frozenset({"a", "b"})
        assert (a & b).sat_count(over=["a", "b", "c"]) == 2

    def test_compose_substitutes_simultaneously(self):
        context = SymbolicContext(["a", "b"])
        a, b = context.var("a"), context.var("b")
        swapped = (a & ~b).compose({"a": b, "b": a})
        assert swapped.equivalent(b & ~a)

    def test_cross_context_mixing_is_rejected(self):
        context_a = SymbolicContext(["a"])
        context_b = SymbolicContext(["a"])
        with pytest.raises(ValueError):
            context_a.var("a") & context_b.var("a")
        with pytest.raises(ValueError):
            context_a.lift(context_b.var("a"))

    def test_scope_merges_through_operations(self):
        context = SymbolicContext(["a", "b"])
        f = context.function(context.var("a").node, scope=["a"])
        g = context.function(context.var("b").node, scope=["b"])
        assert (f & g).scope == ("a", "b")
        assert f.sat_count() == 1  # over its scope, not the whole manager


#: The paper's example at full size plus the default 24-member family grid.
REFERENCE_ARCHS = ["dac2002-example"] + [config.name for config in generate_family()]


class TestDerivationAgainstConcreteFixedPoint:
    @pytest.mark.parametrize("arch_name", REFERENCE_ARCHS)
    def test_closed_forms_match_concrete_fixed_point(self, arch_name):
        # The reference iterates equation (4) per valuation with eval_expr
        # and shares no BDD code with the symbolic derivation.
        spec = build_functional_spec(load_architecture(arch_name))
        derivation = symbolic_most_liberal(spec)
        covers = derivation.moe_expressions
        rng = random.Random(arch_name)
        for _ in range(64):
            valuation = {name: rng.random() < 0.5 for name in spec.input_signals()}
            expected = concrete_most_liberal(spec, valuation)
            assert derivation.evaluate(valuation) == expected, valuation
            assert {
                moe: eval_expr(cover, valuation) for moe, cover in covers.items()
            } == expected, valuation


class TestDerivationResult:
    def test_stall_expressions_are_memoized(self, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        first = derivation.stall_expressions()
        second = derivation.stall_expressions()
        assert first == second
        for moe in first:
            # The per-flag objects are the cached instances, not re-simplified.
            assert first[moe] is second[moe]

    def test_derivation_scope_is_primary_inputs(self, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        for function in derivation.moe_functions.values():
            assert function.scope == tuple(example_spec.input_signals())
            assert function.support() <= set(example_spec.input_signals())


class TestSymbolicObligationsAcrossLayers:
    def test_property_checker_accepts_symbolic_obligations(self, example_spec, example_arch):
        from repro.checking import PropertyChecker

        derivation = symbolic_most_liberal(example_spec)
        context = derivation.context
        checker = PropertyChecker(example_spec, architecture=example_arch, backend="bdd")
        # The derivation's own per-stage contract, handed over as nodes:
        # condition∘MOE ↔ ¬MOE_i must be valid for every stage.
        moe_nodes = {m: f.node for m, f in derivation.moe_functions.items()}
        obligations = {}
        for clause in example_spec.clauses:
            condition = context.function(
                context.manager.compose_many(context.lift(clause.condition).node, moe_nodes)
            )
            obligations[clause.moe] = condition.iff(~derivation.moe_functions[clause.moe])
        report = checker.check_obligations(obligations, name="derived-contract")
        assert report.all_hold()
        assert len(report.results) == len(example_spec.clauses)

    def test_property_checker_reports_failing_obligation_with_witness(
        self, example_spec, example_arch
    ):
        from repro.checking import PropertyChecker

        derivation = symbolic_most_liberal(example_spec)
        checker = PropertyChecker(example_spec, architecture=example_arch, backend="bdd")
        moe = example_spec.moe_flags()[0]
        # MOE_i is not constant-true, so this obligation must fail.
        report = checker.check_obligations({moe: derivation.moe_functions[moe]})
        assert not report.all_hold()
        assert report.results[0].counterexample is not None

    def test_bmc_model_from_derivation(self, example_spec):
        from repro.checking import BoundedModelChecker, CombinationalModel

        derivation = symbolic_most_liberal(example_spec)
        model = CombinationalModel.from_derivation(derivation)
        assert set(model.moe_flags()) == set(example_spec.moe_flags())
        checker = BoundedModelChecker(example_spec, stop_at_first=False)
        result = checker.check_performance(model, bound=2)
        assert result.holds

    def test_synthesis_lowers_isop_covers(self, example_spec):
        from repro.synth import synthesize_interlock

        derivation = symbolic_most_liberal(example_spec)
        synthesis = synthesize_interlock(example_spec, derivation=derivation)
        # The netlist interlock agrees with the closed forms on sampled inputs.
        import random

        rng = random.Random(9)
        interlock = synthesis.interlock()
        for _ in range(25):
            valuation = {
                name: bool(rng.getrandbits(1)) for name in example_spec.input_signals()
            }
            assert interlock.compute_moe(valuation) == derivation.evaluate(valuation)


class TestRegisterInterleavedOrder:
    def test_groups_by_register_index(self):
        names = [
            "interrupt",
            "p.1.src.regaddr=0",
            "p.1.src.regaddr=1",
            "scb[0]",
            "scb[1]",
            "c.regaddr=0",
            "c.regaddr=1",
        ]
        order = register_interleaved_order(names)
        assert order[0] == "interrupt"
        index_0 = {order.index(n) for n in ("p.1.src.regaddr=0", "scb[0]", "c.regaddr=0")}
        index_1 = {order.index(n) for n in ("p.1.src.regaddr=1", "scb[1]", "c.regaddr=1")}
        assert max(index_0) < min(index_1)

    def test_full_firepath_derivation_completes(self):
        # The acceptance scenario: 16 registers, two-sided LIW — previously
        # intractable.  Keep an eye on wall clock: this must stay trivial.
        from repro.archs import firepath_like_architecture
        from repro.spec import build_functional_spec

        spec = build_functional_spec(firepath_like_architecture(num_registers=16))
        derivation = symbolic_most_liberal(spec)
        assert len(derivation.moe_functions) == len(spec.moe_flags())
        assert max(derivation.bdd_sizes.values()) < 10_000
        # Materialization must also stay tractable (budget-raced covers).
        assert all(expr.size() < 10_000 for expr in derivation.moe_expressions.values())
