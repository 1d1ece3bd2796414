"""Property-based tests of the Section 3 theory on random pipeline specifications.

The paper's claim is not about one architecture: *any* functional
specification whose per-stage stall conditions are monotone in the negated
moe flags (and refer only to downstream stages) admits a unique most
liberal moe assignment, reached by fixed-point iteration, which is maximal
among all satisfying assignments.  These tests generate random feed-forward
multi-pipe specifications with hypothesis and machine-check the whole
chain: the Section 3.1 properties, the derivation, maximality, agreement of
the symbolic and concrete fixed points, and the derived interlock passing
every property check.
"""

from hypothesis import given, settings, strategies as st

from repro.checking import PropertyChecker
from repro.expr import (
    Var,
    big_or,
    eval_expr,
    is_satisfiable_by_enumeration,
    substitute,
)
from repro.pipeline import ClosedFormInterlock
from repro.spec import (
    FunctionalSpec,
    StallClause,
    check_all_properties,
    check_disjunction_closure,
    check_maximality,
    check_most_liberal_satisfies,
    PerformanceSpec,
    concrete_most_liberal,
    symbolic_most_liberal,
)
from repro.spec.derivation import derivation_order
from repro.spec.properties import _declare_copies, _whole_formula_closure
from repro.symbolic import SymbolicContext

GLOBAL_INPUTS = ["wait", "irq"]


def whole_formula_closure(spec):
    """Property 2 decided on the whole formula alone, in a fresh spec context."""
    context = SymbolicContext(derivation_order(spec))
    _declare_copies(spec, context)
    return _whole_formula_closure(spec, context, route="whole formula")


@st.composite
def random_pipeline_specs(draw):
    """A random feed-forward multi-pipe functional specification.

    Every pipe has a completion stage stalling on ``req ∧ ¬gnt``; every
    upstream stage stalls on ``rtm ∧ ¬next.moe`` plus, optionally, a global
    input and/or the negated moe of a *deeper* stage of another pipe (so the
    moe dependency graph stays acyclic, as the paper's maximality proof
    assumes).
    """
    num_pipes = draw(st.integers(min_value=1, max_value=3))
    depths = [draw(st.integers(min_value=2, max_value=4)) for _ in range(num_pipes)]

    inputs = list(GLOBAL_INPUTS)
    for pipe in range(num_pipes):
        inputs.extend([f"p{pipe}.req", f"p{pipe}.gnt"])
        for stage in range(1, depths[pipe] + 1):
            inputs.append(f"p{pipe}.{stage}.rtm")

    clauses = []
    for pipe in range(num_pipes):
        depth = depths[pipe]
        for stage in range(depth, 0, -1):
            moe = f"p{pipe}.{stage}.moe"
            if stage == depth:
                condition = Var(f"p{pipe}.req") & ~Var(f"p{pipe}.gnt")
            else:
                disjuncts = [
                    Var(f"p{pipe}.{stage}.rtm") & ~Var(f"p{pipe}.{stage + 1}.moe")
                ]
                if draw(st.booleans()):
                    disjuncts.append(Var(draw(st.sampled_from(GLOBAL_INPUTS))))
                # Optionally couple to a strictly deeper stage of another pipe
                # (cross-pipe structural hazard), keeping the graph acyclic.
                other_candidates = [
                    (other, other_stage)
                    for other in range(num_pipes)
                    if other != pipe
                    for other_stage in range(stage + 1, depths[other] + 1)
                ]
                if other_candidates and draw(st.booleans()):
                    other, other_stage = draw(st.sampled_from(other_candidates))
                    disjuncts.append(~Var(f"p{other}.{other_stage}.moe"))
                condition = big_or(disjuncts)
            clauses.append(StallClause(moe=moe, condition=condition))

    return FunctionalSpec(name="random-pipeline", clauses=clauses, inputs=inputs)


@st.composite
def specs_with_valuations(draw):
    """A random specification together with a random input valuation."""
    spec = draw(random_pipeline_specs())
    valuation = {name: draw(st.booleans()) for name in spec.input_signals()}
    return spec, valuation


@st.composite
def possibly_non_monotone_specs(draw):
    """A random specification, sometimes with one moe flag used positively.

    Flipping ``¬m`` to ``m`` in one stall condition breaks the Section 3.1
    monotonicity requirement, which may or may not break Property (2).
    """
    spec = draw(random_pipeline_specs())
    moe_set = set(spec.moe_flags())
    coupled = [
        clause for clause in spec.clauses if clause.condition.variables() & moe_set
    ]
    if not coupled or not draw(st.booleans()):
        return spec
    target = draw(st.sampled_from(coupled))
    flipped = draw(st.sampled_from(sorted(target.condition.variables() & moe_set)))
    clauses = [
        StallClause(
            moe=clause.moe,
            condition=substitute(clause.condition, {flipped: ~Var(flipped)}),
        )
        if clause is target
        else clause
        for clause in spec.clauses
    ]
    return FunctionalSpec(name="flipped-pipeline", clauses=clauses, inputs=spec.inputs)


class TestRandomPipelineTheory:
    @settings(max_examples=25, deadline=None)
    @given(random_pipeline_specs())
    def test_section_3_properties_hold(self, spec):
        derivation = symbolic_most_liberal(spec)
        report = check_all_properties(spec, derivation)
        assert report.all_hold(), report.describe()
        assert check_maximality(spec, derivation).holds

    @settings(max_examples=25, deadline=None)
    @given(random_pipeline_specs())
    def test_derivation_is_feed_forward_and_bounded(self, spec):
        derivation = symbolic_most_liberal(spec)
        assert derivation.feed_forward
        assert 1 <= derivation.iterations <= len(spec.moe_flags()) + 1
        # Closed forms mention primary inputs only.
        moe_set = set(spec.moe_flags())
        for expression in derivation.moe_expressions.values():
            assert not (expression.variables() & moe_set)

    @settings(max_examples=25, deadline=None)
    @given(random_pipeline_specs())
    def test_most_liberal_satisfies_and_is_maximal(self, spec):
        derivation = symbolic_most_liberal(spec)
        assert check_most_liberal_satisfies(spec, derivation).holds
        assert check_maximality(spec, derivation).holds
        # Independent cross-check of maximality, without BDDs: no
        # satisfying assignment sets a flag the derived MOE clears
        # (SPEC_func ∧ moe_i ∧ ¬MOE_i is unsatisfiable for every flag,
        # enumerated as one disjunction over the flags).
        functional = spec.functional_formula()
        if len(functional.variables()) <= 24:
            refutations = big_or(
                Var(moe) & ~closed_form
                for moe, closed_form in derivation.moe_expressions.items()
            )
            assert not is_satisfiable_by_enumeration(functional & refutations)

    @settings(max_examples=20, deadline=None)
    @given(random_pipeline_specs())
    def test_derived_interlock_passes_every_property_check(self, spec):
        interlock = ClosedFormInterlock.from_derivation(symbolic_most_liberal(spec))
        checker = PropertyChecker(spec, architecture=None)
        assert checker.check_functional(interlock).all_hold()
        assert checker.check_performance(interlock).all_hold()
        assert checker.check_combined(interlock).all_hold()
        assert checker.check_equivalence_with_derived(interlock).all_hold()

    @settings(max_examples=25, deadline=None)
    @given(specs_with_valuations())
    def test_symbolic_and_concrete_fixed_points_agree(self, spec_and_valuation):
        spec, valuation = spec_and_valuation
        derivation = symbolic_most_liberal(spec)
        concrete = concrete_most_liberal(spec, valuation)
        symbolic = derivation.evaluate(valuation)
        assert concrete == symbolic

    @settings(max_examples=25, deadline=None)
    @given(specs_with_valuations())
    def test_concrete_fixed_point_satisfies_both_spec_halves(self, spec_and_valuation):
        spec, valuation = spec_and_valuation
        assignment = dict(valuation)
        assignment.update(concrete_most_liberal(spec, valuation))
        performance = PerformanceSpec(spec)
        assert eval_expr(spec.functional_formula(), assignment)
        assert eval_expr(performance.formula(), assignment)

    @settings(max_examples=15, deadline=None)
    @given(random_pipeline_specs())
    def test_all_false_always_satisfies_but_is_not_maximal(self, spec):
        # Property (1): stalling everything is always functionally safe...
        all_false = {moe: False for moe in spec.moe_flags()}
        assignment = {name: True for name in spec.input_signals()}
        assignment.update(all_false)
        assert eval_expr(spec.functional_formula(), assignment)
        # ...but unless every stage is genuinely forced to stall under these
        # inputs, it is not the most liberal assignment.
        derived = concrete_most_liberal(spec, {name: False for name in spec.input_signals()})
        assert all(derived.values()), "with no stall causes asserted nothing needs to stall"

    @settings(max_examples=20, deadline=None)
    @given(possibly_non_monotone_specs())
    def test_property_two_routes_agree(self, spec):
        per_clause = check_disjunction_closure(spec)
        whole = whole_formula_closure(spec)
        assert per_clause.holds == whole.holds
        if spec.is_monotone():
            assert per_clause.holds and "decided per clause" in per_clause.detail
        if not whole.holds:
            witness = whole.counterexample
            inputs = {name: witness.get(name, False) for name in spec.input_signals()}
            m1 = {m: witness.get(f"__copy1::{m}", False) for m in spec.moe_flags()}
            m2 = {m: witness.get(f"__copy2::{m}", False) for m in spec.moe_flags()}
            joined = {m: m1[m] or m2[m] for m in spec.moe_flags()}
            functional = spec.functional_formula()
            assert eval_expr(functional, {**inputs, **m1})
            assert eval_expr(functional, {**inputs, **m2})
            assert not eval_expr(functional, {**inputs, **joined})
