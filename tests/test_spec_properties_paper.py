"""Tests for the Section 3 property checks and the literal paper case study.

The paper case-study tests are the headline correctness results of the
reproduction: the automatically built specification is logically equivalent
to the Figure 2 formula, the derived performance specification to Figure 3,
and the Section 3 properties all hold and are machine-checked.
"""

import pytest

from repro.archs import (
    example_architecture,
    generate_family,
    load_architecture,
    paper_combined_formula,
    paper_functional_formula,
    paper_performance_formula,
    paper_stall_conditions,
)
from repro.expr import FALSE, Var, eval_expr
from repro.spec import (
    FunctionalSpec,
    StallClause,
    build_functional_spec,
    check_all_false_satisfies,
    check_all_properties,
    check_disjunction_closure,
    check_maximality,
    check_monotonicity,
    check_most_liberal_satisfies,
    derive_combined_spec,
    derive_performance_spec,
    symbolic_most_liberal,
)
from repro.symbolic import SymbolicContext
from repro.spec.derivation import derivation_order
from repro.spec.properties import (
    _declare_copies,
    _whole_formula_closure,
    check_semantic_monotonicity,
)


def whole_formula_closure(spec):
    """Property 2 decided on the whole formula alone, in a fresh spec context."""
    context = SymbolicContext(derivation_order(spec))
    _declare_copies(spec, context)
    return _whole_formula_closure(spec, context, route="whole formula")


class TestSectionThreeProperties:
    def test_all_properties_hold_for_example(self, example_spec):
        report = check_all_properties(example_spec)
        assert report.all_hold(), report.describe()

    def test_all_properties_hold_for_risc(self, risc_spec):
        report = check_all_properties(risc_spec)
        assert report.all_hold(), report.describe()
        assert check_maximality(risc_spec).holds

    def test_all_properties_hold_for_firepath_like(self, firepath_spec):
        report = check_all_properties(firepath_spec)
        assert report.all_hold(), report.describe()
        assert check_maximality(firepath_spec).holds

    def test_report_lookup_and_describe(self, example_spec):
        report = check_all_properties(example_spec)
        assert report.check("property-1-all-false-satisfies").holds
        with pytest.raises(KeyError):
            report.check("missing")
        # The Section 3.2 theorem is check_maximality's alone.
        with pytest.raises(KeyError):
            report.check("maximality-of-most-liberal")
        assert "Section 3" in report.describe()

    def test_property_one_direct(self, example_spec):
        assert check_all_false_satisfies(example_spec).holds

    def test_property_two_direct_and_semantic(self, example_spec):
        assert check_disjunction_closure(example_spec).holds
        assert check_semantic_monotonicity(example_spec).holds

    def test_property_three_and_maximality(self, example_spec, example_derivation):
        assert check_most_liberal_satisfies(example_spec, example_derivation).holds
        assert check_maximality(example_spec, example_derivation).holds

    def test_monotonicity_check_flags_bad_spec(self):
        spec = FunctionalSpec(
            name="bad",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("x")),
            ],
            inputs=["x"],
        )
        assert not check_monotonicity(spec).holds
        assert not check_semantic_monotonicity(spec).holds
        report = check_all_properties(spec)
        assert not report.all_hold()

    def test_property_one_is_trivial_for_implication_form(self):
        # The paper: "Establishing the first property is trivial, since our
        # specification does not state anything about when pipeline stages do
        # not stall."  Even a pathological clause keeps property (1) true
        # because the consequent ¬moe is satisfied by the all-false vector.
        spec = FunctionalSpec(
            name="pathological",
            clauses=[
                StallClause(moe="a.moe", condition=~Var("a.moe")),
            ],
            inputs=[],
        )
        assert check_all_false_satisfies(spec).holds

    def test_disjunction_closure_counterexample_for_non_monotone_spec(self):
        # F(a) = ¬x ∨ x∧(¬other) is monotone, so craft a genuinely
        # non-monotone condition: stall a.moe exactly when b is moving.
        spec = FunctionalSpec(
            name="bad",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=FALSE),
            ],
            inputs=[],
        )
        check = check_disjunction_closure(spec)
        assert not check.holds
        assert check.counterexample is not None
        assert_closure_counterexample(spec, check)

    def test_direct_closure_decided_per_clause_on_firepath(self, firepath_spec):
        report = check_all_properties(firepath_spec)
        check = report.check("property-2-disjunction-closure")
        assert check.holds, check.detail
        assert "decided per clause" in check.detail
        assert report.check("semantic-monotonicity").holds

    def test_direct_closure_forced(self, example_spec):
        report = check_all_properties(example_spec)
        names = [check.name for check in report.checks]
        assert "property-2-disjunction-closure" in names


#: The default 24-member family grid plus the paper's example at full size.
PROPERTY_TWO_ARCHS = [config.name for config in generate_family()] + ["dac2002-example"]


def non_monotone_spec():
    """Stall a.moe exactly when b is moving: Property 2 fails."""
    return FunctionalSpec(
        name="bad",
        clauses=[
            StallClause(moe="a.moe", condition=Var("b.moe")),
            StallClause(moe="b.moe", condition=FALSE),
        ],
        inputs=[],
    )


def assert_closure_counterexample(spec, check):
    """``m1`` and ``m2`` satisfy SPEC_func while ``m1 ∨ m2`` violates it."""
    assignment = check.counterexample
    assert assignment is not None
    # Variables outside the counterexample's support are don't-cares.
    inputs = {name: assignment.get(name, False) for name in spec.input_signals()}
    m1 = {moe: assignment.get(f"__copy1::{moe}", False) for moe in spec.moe_flags()}
    m2 = {moe: assignment.get(f"__copy2::{moe}", False) for moe in spec.moe_flags()}
    joined = {moe: m1[moe] or m2[moe] for moe in spec.moe_flags()}
    functional = spec.functional_formula()
    assert eval_expr(functional, {**inputs, **m1})
    assert eval_expr(functional, {**inputs, **m2})
    assert not eval_expr(functional, {**inputs, **joined})


class TestPropertyTwoRoutes:
    """The per-clause and whole-formula Property 2 routes give one verdict."""

    @pytest.mark.parametrize("arch", PROPERTY_TWO_ARCHS)
    def test_routes_agree_and_clauses_decide(self, arch):
        spec = build_functional_spec(load_architecture(arch))
        per_clause = check_disjunction_closure(spec)
        whole = whole_formula_closure(spec)
        assert per_clause.holds and whole.holds
        assert "decided per clause" in per_clause.detail
        assert "decided on the whole formula" in whole.detail

    def test_routes_agree_on_non_monotone_spec(self):
        spec = non_monotone_spec()
        per_clause = check_disjunction_closure(spec)
        whole = whole_formula_closure(spec)
        assert not per_clause.holds and not whole.holds
        # A clause that is not closed alone hands the verdict to the
        # whole formula, which supplies the counterexample.
        assert "after the clause for a.moe" in per_clause.detail
        assert_closure_counterexample(spec, per_clause)
        assert_closure_counterexample(spec, whole)

    def test_open_clause_alone_does_not_refute(self):
        # a.moe's clause alone is not closed (m1 = {a}, m2 = {b}), but the
        # b clause forbids b from moving, so the specification is.
        spec = FunctionalSpec(
            name="closed-by-conjunction",
            clauses=[
                StallClause(moe="a.moe", condition=Var("b.moe")),
                StallClause(moe="b.moe", condition=Var("x") | ~Var("x")),
            ],
            inputs=["x"],
        )
        per_clause = check_disjunction_closure(spec)
        assert per_clause.holds
        assert "decided on the whole formula" in per_clause.detail
        assert whole_formula_closure(spec).holds


class TestPaperCaseStudy:
    """Figure-level equivalences with the published formulas."""

    @pytest.fixture(scope="class")
    def arch(self):
        return example_architecture(num_registers=2)

    @pytest.fixture(scope="class")
    def spec(self, arch):
        return build_functional_spec(arch)

    def test_stall_conditions_match_figure_2_per_stage(self, spec):
        context = SymbolicContext()
        for moe, paper_condition in paper_stall_conditions(2).items():
            assert context.lift(spec.condition_for(moe)).equivalent(
                context.lift(paper_condition)
            ), moe

    def test_functional_formula_matches_figure_2(self, spec):
        context = SymbolicContext()
        assert context.lift(spec.functional_formula()).equivalent(
            context.lift(paper_functional_formula(2))
        )

    def test_performance_formula_matches_figure_3(self, spec):
        context = SymbolicContext()
        performance = derive_performance_spec(spec)
        assert context.lift(performance.formula()).equivalent(
            context.lift(paper_performance_formula(2))
        )

    def test_combined_formula_matches_section_2_2_3(self, spec):
        context = SymbolicContext()
        assert context.lift(derive_combined_spec(spec).formula()).equivalent(
            context.lift(paper_combined_formula(2))
        )

    def test_full_register_count_also_matches(self, example_spec_full):
        context = SymbolicContext()
        assert context.lift(example_spec_full.functional_formula()).equivalent(
            context.lift(paper_functional_formula(8))
        )

    def test_figure_3_is_the_fixed_point(self, spec):
        """The derived MOE closed forms satisfy exactly the Figure 3 equivalences."""
        derivation = symbolic_most_liberal(spec)
        context = SymbolicContext()
        from repro.expr.transform import substitute

        combined = paper_combined_formula(2)
        residual = substitute(combined, derivation.moe_expressions)
        assert context.lift(residual).is_true()

    def test_paper_formula_satisfied_by_all_false(self, spec):
        """Property (1) exactly as stated in the paper: f(<False,...,False>)."""
        from repro.expr import FALSE
        from repro.expr.transform import substitute

        context = SymbolicContext()
        all_false = {moe: FALSE for moe in spec.moe_flags()}
        assert context.lift(substitute(paper_functional_formula(2), all_false)).is_true()
