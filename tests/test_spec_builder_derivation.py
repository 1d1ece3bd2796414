"""Tests for automatic spec construction and the fixed-point derivation."""

import pytest

from repro.archs import load_architecture
from repro.expr import FALSE, Var, eval_expr
from repro.spec import (
    BuilderOptions,
    DerivationError,
    FunctionalSpec,
    SpecBuilder,
    StallClause,
    build_functional_spec,
    check_maximality,
    concrete_most_liberal,
    conservative_variant,
    derive_combined_spec,
    derive_performance_spec,
    symbolic_most_liberal,
)
from repro.spec.functional import SpecificationError
from repro.symbolic import SymbolicContext


class TestSpecBuilder:
    def test_one_clause_per_stage(self, example_arch, example_spec):
        assert len(example_spec.clauses) == example_arch.stage_count()
        assert set(example_spec.moe_flags()) == set(example_arch.moe_signals())

    def test_completion_stage_condition(self, example_arch):
        builder = SpecBuilder(example_arch)
        condition = builder.stall_condition_for("long", 4)
        assert condition == Var("long.req") & ~Var("long.gnt")

    def test_intermediate_stage_condition(self, example_arch):
        builder = SpecBuilder(example_arch)
        condition = builder.stall_condition_for("long", 3)
        assert condition == Var("long.3.rtm") & ~Var("long.4.moe")

    def test_issue_stage_includes_wait_lockstep_scoreboard(self, example_arch):
        builder = SpecBuilder(example_arch)
        condition = builder.stall_condition_for("long", 1)
        names = condition.variables()
        assert "op_is_WAIT" in names
        assert "short.1.moe" in names
        assert "scb[0]" in names
        assert "long.1.src.regaddr=0" in names
        assert "c.regaddr=0" in names

    def test_short_issue_has_no_wait(self, example_arch):
        builder = SpecBuilder(example_arch)
        condition = builder.stall_condition_for("short", 1)
        assert "op_is_WAIT" not in condition.variables()

    def test_options_disable_features(self, example_arch):
        options = BuilderOptions(
            include_scoreboard=False, include_lockstep=False, include_extra_stalls=False
        )
        spec = SpecBuilder(example_arch, options).build()
        condition = spec.condition_for("long.1.moe")
        names = condition.variables()
        assert "op_is_WAIT" not in names
        assert "short.1.moe" not in names
        assert not any(name.startswith("scb") for name in names)

    def test_no_bypass_option_drops_bus_target_terms(self, example_arch):
        spec = SpecBuilder(example_arch, BuilderOptions(include_bypass=False)).build()
        condition = spec.condition_for("long.1.moe")
        assert not any(name.startswith("c.regaddr") for name in condition.variables())

    def test_conservative_variant_stalls_more(self, example_arch):
        normal = build_functional_spec(example_arch)
        conservative = conservative_variant(example_arch)
        context = SymbolicContext()
        # The conservative issue condition is implied by... the other way round:
        # the normal condition implies the conservative one (fewer escape hatches).
        normal_stall = context.lift(normal.condition_for("long.1.moe"))
        conservative_stall = context.lift(conservative.condition_for("long.1.moe"))
        assert normal_stall.implies(conservative_stall).is_true()
        assert not normal_stall.equivalent(conservative_stall)

    def test_final_stage_without_bus_never_stalls(self):
        from repro.pipeline import Architecture, PipeSpec

        arch = Architecture(name="nb", pipes=[PipeSpec(name="p", num_stages=2)], buses=[])
        spec = build_functional_spec(arch)
        assert spec.condition_for("p.2.moe") == FALSE

    def test_builder_output_is_monotone_for_all_archs(self, firepath_spec, risc_spec):
        assert firepath_spec.is_monotone()
        assert risc_spec.is_monotone()

    def test_metadata_records_architecture(self, example_arch, example_spec):
        assert example_spec.metadata["architecture"] is example_arch


class TestConcreteDerivation:
    def test_all_inputs_false_gives_all_moving(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        moe = concrete_most_liberal(example_spec, inputs)
        assert all(moe.values())

    def test_completion_stall_propagates_with_rtm_chain(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        inputs.update(
            {
                "long.req": True,
                "long.3.rtm": True,
                "long.2.rtm": True,
                "long.1.rtm": True,
            }
        )
        moe = concrete_most_liberal(example_spec, inputs)
        assert not moe["long.4.moe"]
        assert not moe["long.3.moe"]
        assert not moe["long.2.moe"]
        assert not moe["long.1.moe"]
        # Lock-step drags the short issue stage down with the long one.
        assert not moe["short.1.moe"]
        assert moe["short.2.moe"]

    def test_stall_does_not_propagate_without_rtm(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        inputs["long.req"] = True
        moe = concrete_most_liberal(example_spec, inputs)
        assert not moe["long.4.moe"]
        assert moe["long.3.moe"] and moe["long.2.moe"] and moe["long.1.moe"]

    def test_grant_removes_completion_stall(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        inputs.update({"long.req": True, "long.gnt": True})
        moe = concrete_most_liberal(example_spec, inputs)
        assert all(moe.values())

    def test_wait_stalls_both_issue_stages(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        inputs["op_is_WAIT"] = True
        moe = concrete_most_liberal(example_spec, inputs)
        assert not moe["long.1.moe"]
        assert not moe["short.1.moe"]
        assert moe["long.2.moe"] and moe["short.2.moe"]

    def test_scoreboard_hazard_stalls_issue_unless_bypassed(self, example_spec):
        inputs = {name: False for name in example_spec.input_signals()}
        inputs.update({"long.1.src.regaddr=0": True, "scb[0]": True})
        moe = concrete_most_liberal(example_spec, inputs)
        assert not moe["long.1.moe"]
        inputs["c.regaddr=0"] = True  # bypassed by the completion bus this cycle
        moe = concrete_most_liberal(example_spec, inputs)
        assert moe["long.1.moe"]

    def test_non_monotone_spec_raises(self):
        spec = FunctionalSpec(
            name="broken",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("x")),
            ],
            inputs=["x"],
        )
        with pytest.raises(DerivationError):
            concrete_most_liberal(spec, {"x": True})

    def test_matches_symbolic_derivation_on_sampled_inputs(self, example_spec, example_derivation):
        import random

        rng = random.Random(0)
        inputs = example_spec.input_signals()
        for _ in range(50):
            valuation = {name: bool(rng.getrandbits(1)) for name in inputs}
            concrete = concrete_most_liberal(example_spec, valuation)
            symbolic = example_derivation.evaluate(valuation)
            assert concrete == symbolic


class TestSymbolicDerivation:
    def test_closed_forms_use_inputs_only(self, example_spec, example_derivation):
        input_set = set(example_spec.input_signals())
        for expression in example_derivation.moe_expressions.values():
            assert expression.variables() <= input_set

    def test_iteration_count_bounded_by_stage_count(self, example_spec, example_derivation):
        assert 1 <= example_derivation.iterations <= len(example_spec.moe_flags()) + 2

    def test_feed_forward_flag(self, example_derivation, risc_spec):
        assert example_derivation.feed_forward is False
        assert symbolic_most_liberal(risc_spec).feed_forward is True

    def test_completion_stage_closed_form(self, example_derivation):
        expression = example_derivation.moe_expression("long.4.moe")
        assert eval_expr(expression, {"long.req": True, "long.gnt": False}) is False
        assert eval_expr(expression, {"long.req": True, "long.gnt": True}) is True
        assert eval_expr(expression, {"long.req": False, "long.gnt": False}) is True

    def test_stall_expressions_are_negations(self, example_derivation):
        context = SymbolicContext()
        stalls = example_derivation.stall_expressions()
        for moe, expression in example_derivation.moe_expressions.items():
            assert context.lift(stalls[moe]).equivalent(context.lift(~expression))

    def test_bdd_sizes_reported(self, example_derivation):
        assert set(example_derivation.bdd_sizes) == set(example_derivation.moe_expressions)
        assert all(size >= 0 for size in example_derivation.bdd_sizes.values())

    def test_describe_mentions_every_flag(self, example_derivation):
        text = example_derivation.describe()
        for moe in example_derivation.moe_expressions:
            assert moe in text

    def test_derivation_scales_to_deeper_pipes(self):
        # Three lock-stepped pipes of depths 6, 5 and 4.
        spec = build_functional_spec(load_architecture("fam-r2w3d6s1-bypass"))
        derivation = symbolic_most_liberal(spec)
        assert len(derivation.moe_expressions) == 15
        assert derivation.iterations == 3
        input_set = set(spec.input_signals())
        for expression in derivation.moe_expressions.values():
            assert expression.variables() <= input_set

    def test_non_monotone_spec_raises(self):
        spec = FunctionalSpec(
            name="broken",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("a.moe")),
            ],
            inputs=[],
        )
        with pytest.raises(DerivationError):
            symbolic_most_liberal(spec)

    def test_iteration_bound_is_not_an_option(self, example_spec):
        # The bound is the number of flags + 2; no caller sets another.
        with pytest.raises(TypeError):
            symbolic_most_liberal(example_spec, max_iterations=5)
        with pytest.raises(TypeError):
            concrete_most_liberal(example_spec, {}, max_iterations=5)


class TestDerivedSpecs:
    def test_derive_performance_spec_checks_preconditions(self, example_spec):
        performance = derive_performance_spec(example_spec)
        assert [c.moe for c in performance.clauses] == example_spec.moe_flags()

    def test_derive_combined_spec(self, example_spec):
        combined = derive_combined_spec(example_spec)
        assert [c.moe for c in combined.clauses] == example_spec.moe_flags()

    def test_derivation_rejects_non_monotone_spec(self):
        spec = FunctionalSpec(
            name="broken",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("x")),
            ],
            inputs=["x"],
        )
        with pytest.raises(SpecificationError):
            derive_performance_spec(spec)

    def test_combined_derivation_rejects_non_monotone_spec(self):
        spec = FunctionalSpec(
            name="broken",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("x")),
            ],
            inputs=["x"],
        )
        with pytest.raises(SpecificationError):
            derive_combined_spec(spec)

    def test_most_liberal_is_maximal(self, example_spec, example_derivation):
        assert check_maximality(example_spec, example_derivation).holds
