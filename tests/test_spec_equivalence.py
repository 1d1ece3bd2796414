"""Tests for specification equivalence and refinement (repro.spec.equivalence)."""

import pytest

from repro.expr import TRUE, Var, parse_expr
from repro.pipeline import ClosedFormInterlock
from repro.spec import (
    FunctionalSpec,
    SpecificationError,
    StallClause,
    build_functional_spec,
    check_clause_equivalence,
    check_derived_equivalence,
    check_refinement,
    conservative_variant,
    interlocks_equivalent,
    symbolic_most_liberal,
)


def _respelled(spec):
    """The same specification with each condition rewritten but equivalent."""
    clauses = []
    for clause in spec.clauses:
        condition = clause.condition
        # A | A is logically the same condition, just spelled differently.
        clauses.append(StallClause(moe=clause.moe, condition=condition | condition,
                                   label=clause.label))
    return FunctionalSpec(
        name=f"{spec.name}-respelled",
        clauses=clauses,
        inputs=list(spec.inputs),
        metadata=dict(spec.metadata),
    )


class TestClauseEquivalence:
    def test_spec_is_equivalent_to_itself(self, example_spec):
        report = check_clause_equivalence(example_spec, example_spec)
        assert report.equivalent
        assert report.differing_flags() == []

    def test_respelled_spec_is_equivalent(self, example_spec):
        report = check_clause_equivalence(example_spec, _respelled(example_spec))
        assert report.equivalent

    def test_textually_different_conditions_detected(self, example_spec):
        clauses = [
            StallClause(moe=c.moe, condition=c.condition, label=c.label)
            for c in example_spec.clauses
        ]
        # Drop the WAIT disjunct from the long issue stage.
        target = next(i for i, c in enumerate(clauses) if c.moe == "long.1.moe")
        weakened = parse_expr("long.1.rtm & !long.2.moe")
        clauses[target] = StallClause(moe="long.1.moe", condition=weakened)
        other = FunctionalSpec(name="weakened", clauses=clauses, inputs=list(example_spec.inputs))
        report = check_clause_equivalence(example_spec, other)
        assert not report.equivalent
        assert "long.1.moe" in report.differing_flags()
        comparison = next(f for f in report.flags if f.moe == "long.1.moe")
        assert comparison.counterexample is not None

    def test_mismatched_stages_rejected(self, example_spec, risc_spec):
        with pytest.raises(SpecificationError):
            check_clause_equivalence(example_spec, risc_spec)

    def test_describe_mentions_verdict(self, example_spec):
        text = check_clause_equivalence(example_spec, example_spec).describe()
        assert "equivalent" in text


class TestDerivedEquivalence:
    def test_respelled_spec_induces_same_interlock(self, example_spec):
        report = check_derived_equivalence(example_spec, _respelled(example_spec))
        assert report.equivalent

    def test_conservative_variant_differs(self, example_arch, example_spec):
        conservative = conservative_variant(example_arch)
        report = check_derived_equivalence(example_spec, conservative)
        assert not report.equivalent


class TestRefinement:
    def test_spec_refines_itself(self, example_spec):
        report = check_refinement(example_spec, example_spec)
        assert report.equivalent
        assert report.functionally_refines
        assert report.performance_refines

    def test_conservative_variant_is_safe_but_slower(self, example_arch, example_spec):
        conservative = conservative_variant(example_arch)
        report = check_refinement(conservative, example_spec)
        # It stalls whenever the reference requires (safe) ...
        assert report.functionally_refines
        # ... but also in situations the reference does not justify (slower).
        assert not report.performance_refines
        assert report.extra_stall_flags()
        assert not report.equivalent

    def test_weakened_spec_is_not_safe(self, example_spec):
        clauses = []
        for clause in example_spec.clauses:
            condition = clause.condition
            if clause.moe == "short.1.moe":
                condition = parse_expr("short.1.rtm & !short.2.moe")
            clauses.append(StallClause(moe=clause.moe, condition=condition, label=clause.label))
        weakened = FunctionalSpec(name="weak", clauses=clauses, inputs=list(example_spec.inputs))
        report = check_refinement(weakened, example_spec)
        assert not report.functionally_refines
        assert "short.1.moe" in report.missing_stall_flags()

    def test_describe_reports_both_directions(self, example_arch, example_spec):
        conservative = conservative_variant(example_arch)
        text = check_refinement(conservative, example_spec).describe()
        assert "functionally safe" in text
        assert "performance equal" in text


class TestInterlockEquivalence:
    def test_same_derivation_twice(self, example_spec):
        first = ClosedFormInterlock.from_derivation(symbolic_most_liberal(example_spec))
        second = ClosedFormInterlock.from_spec(example_spec)
        report = interlocks_equivalent(first.expressions(), second.expressions())
        assert report.equivalent

    def test_mutated_interlock_detected(self, example_spec, example_interlock):
        mutated = example_interlock.with_replaced_flag(
            "long.4.moe", example_interlock.expression_for("long.4.moe") & ~Var("short.req")
        )
        report = interlocks_equivalent(example_interlock.expressions(), mutated.expressions())
        assert not report.equivalent
        assert "long.4.moe" in report.differing_flags()

    def test_mismatched_flag_sets_rejected(self, example_interlock):
        expressions = dict(example_interlock.expressions())
        expressions.pop("long.4.moe")
        with pytest.raises(SpecificationError):
            interlocks_equivalent(example_interlock.expressions(), expressions)


@pytest.mark.parametrize(
    "compare",
    [check_clause_equivalence, check_derived_equivalence, check_refinement],
    ids=lambda function: function.__name__,
)
def test_spec_comparisons_take_no_assumptions(compare, example_spec):
    with pytest.raises(TypeError):
        compare(example_spec, example_spec, assumptions=TRUE)


def test_interlock_comparison_takes_no_assumptions(example_interlock):
    expressions = example_interlock.expressions()
    with pytest.raises(TypeError):
        interlocks_equivalent(expressions, expressions, assumptions=TRUE)
