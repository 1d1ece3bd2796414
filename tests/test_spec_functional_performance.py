"""Tests for FunctionalSpec / PerformanceSpec / CombinedSpec data structures."""

import pytest

from repro.expr import Iff, Implies, Not, Var, eval_expr
from repro.spec import (
    CombinedSpec,
    FunctionalSpec,
    PerformanceSpec,
    SpecificationError,
    StallClause,
)


def two_stage_spec():
    """A minimal two-stage single-pipe specification used throughout."""
    moe2, moe1 = "p.2.moe", "p.1.moe"
    clause2 = StallClause(moe=moe2, condition=Var("p.req") & ~Var("p.gnt"), label="completion")
    clause1 = StallClause(moe=moe1, condition=Var("p.1.rtm") & ~Var(moe2), label="issue")
    return FunctionalSpec(
        name="two-stage",
        clauses=[clause2, clause1],
        inputs=["p.req", "p.gnt", "p.1.rtm"],
    )


class TestStallClause:
    def test_functional_formula_shape(self):
        clause = StallClause(moe="m", condition=Var("c"))
        assert clause.functional_formula() == Implies(Var("c"), Not(Var("m")))

    def test_performance_formula_shape(self):
        clause = StallClause(moe="m", condition=Var("c"))
        assert clause.performance_formula() == Implies(Not(Var("m")), Var("c"))

    def test_combined_formula_shape(self):
        clause = StallClause(moe="m", condition=Var("c"))
        assert clause.combined_formula() == Iff(Var("c"), Not(Var("m")))

    def test_moe_variables_in_condition(self):
        clause = StallClause(moe="a.1.moe", condition=Var("rtm") & ~Var("a.2.moe"))
        assert clause.moe_variables_in_condition(["a.1.moe", "a.2.moe"]) == ["a.2.moe"]

    def test_describe_mentions_label_and_moe(self):
        clause = StallClause(moe="m", condition=Var("c"), label="issue")
        text = clause.describe()
        assert "issue" in text and "m" in text and "c" in text


class TestFunctionalSpecValidation:
    def test_duplicate_moe_rejected(self):
        clause = StallClause(moe="m", condition=Var("c"))
        with pytest.raises(SpecificationError):
            FunctionalSpec(name="bad", clauses=[clause, clause], inputs=["c"])

    def test_undeclared_signal_rejected(self):
        clause = StallClause(moe="m", condition=Var("mystery"))
        with pytest.raises(SpecificationError):
            FunctionalSpec(name="bad", clauses=[clause], inputs=[])

    def test_signal_cannot_be_both_input_and_moe(self):
        clause = StallClause(moe="m", condition=Var("c"))
        with pytest.raises(SpecificationError):
            FunctionalSpec(name="bad", clauses=[clause], inputs=["c", "m"])

    def test_conditions_may_reference_other_moes(self):
        spec = two_stage_spec()
        assert spec.moe_flags() == ["p.2.moe", "p.1.moe"]


class TestFunctionalSpecQueries:
    def test_clause_and_condition_lookup(self):
        spec = two_stage_spec()
        assert spec.clause_for("p.1.moe").label == "issue"
        assert spec.condition_for("p.2.moe") == Var("p.req") & ~Var("p.gnt")
        with pytest.raises(KeyError):
            spec.clause_for("unknown")

    def test_all_signals(self):
        spec = two_stage_spec()
        assert spec.all_signals() == ["p.req", "p.gnt", "p.1.rtm", "p.2.moe", "p.1.moe"]

    def test_formulas_are_conjunctions_over_clauses(self):
        spec = two_stage_spec()
        functional = spec.functional_formula()
        env = {
            "p.req": True,
            "p.gnt": False,
            "p.1.rtm": True,
            "p.2.moe": False,
            "p.1.moe": False,
        }
        assert eval_expr(functional, env)
        env["p.2.moe"] = True  # completion moves although not granted: violation
        assert not eval_expr(functional, env)

    def test_performance_formula_detects_unnecessary_stall(self):
        spec = two_stage_spec()
        performance = spec.performance_formula()
        env = {
            "p.req": False,
            "p.gnt": False,
            "p.1.rtm": False,
            "p.2.moe": False,  # stalled with no reason
            "p.1.moe": True,
        }
        assert not eval_expr(performance, env)
        env["p.2.moe"] = True
        assert eval_expr(performance, env)

    def test_moe_dependencies_and_feed_forward(self):
        spec = two_stage_spec()
        deps = spec.moe_dependencies()
        assert deps["p.1.moe"] == ["p.2.moe"]
        assert deps["p.2.moe"] == []
        assert spec.is_feed_forward()

    def test_lockstep_cycle_not_feed_forward(self, example_spec):
        assert not example_spec.is_feed_forward()

    def test_monotonicity_check(self):
        spec = two_stage_spec()
        assert spec.is_monotone()
        assert spec.violating_clauses() == []

    def test_non_monotone_spec_detected(self):
        clause = StallClause(moe="a.moe", condition=Var("b.moe"))  # positive moe use
        other = StallClause(moe="b.moe", condition=Var("x"))
        spec = FunctionalSpec(name="bad", clauses=[clause, other], inputs=["x"])
        assert not spec.is_monotone()
        assert spec.violating_clauses() == ["a.moe"]

    def test_describe_lists_every_clause(self):
        spec = two_stage_spec()
        text = spec.describe()
        assert "p.2.moe" in text and "p.1.moe" in text
        unicode_text = spec.describe(unicode_symbols=True)
        assert "→" in unicode_text and "¬" in unicode_text


class TestSpecTransformations:
    def test_substitute_inputs_refines_grant(self):
        spec = two_stage_spec()
        refined = spec.substitute_inputs({"p.gnt": Var("p.req")})
        condition = refined.condition_for("p.2.moe")
        assert eval_expr(condition, {"p.req": True}) is False
        assert "p.gnt" not in refined.input_signals()

    def test_substitute_moe_flag_rejected(self):
        spec = two_stage_spec()
        with pytest.raises(SpecificationError):
            spec.substitute_inputs({"p.2.moe": Var("x")})

class TestPerformanceAndCombinedSpecs:
    def test_performance_clauses_mirror_functional(self):
        spec = two_stage_spec()
        performance = PerformanceSpec(spec)
        assert [clause.moe for clause in performance.clauses] == spec.moe_flags()
        assert performance.name == spec.name
        assert performance.functional is spec

    def test_performance_clause_formula_and_violation(self):
        spec = two_stage_spec()
        clause = PerformanceSpec(spec).clause_for("p.2.moe")
        env = {"p.req": False, "p.gnt": False, "p.2.moe": False}
        assert not eval_expr(clause.formula(), env)
        assert eval_expr(clause.violation_condition(), env)

    def test_performance_clause_lookup_error(self):
        with pytest.raises(KeyError):
            PerformanceSpec(two_stage_spec()).clause_for("nothing")

    def test_combined_formula_is_conjunction_of_iffs(self):
        spec = two_stage_spec()
        combined = CombinedSpec(spec)
        env = {
            "p.req": True,
            "p.gnt": False,
            "p.1.rtm": False,
            "p.2.moe": False,
            "p.1.moe": True,
        }
        assert eval_expr(combined.formula(), env)
        env["p.1.moe"] = False  # stalls without reason: combined spec violated
        assert not eval_expr(combined.formula(), env)

    def test_combined_moe_definition(self):
        spec = two_stage_spec()
        clause = CombinedSpec(spec).clauses[0]
        assert clause.moe_definition() == Not(spec.condition_for("p.2.moe"))

    def test_describe_renders(self):
        spec = two_stage_spec()
        assert "SPEC_perf" in PerformanceSpec(spec).describe()
        assert "SPEC_combined" in CombinedSpec(spec).describe()
        assert "<->" in CombinedSpec(spec).describe()
