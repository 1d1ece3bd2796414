"""Comparing specifications through the interlocks they induce.

Two specifications are interchangeable when they induce the same
maximum-performance interlock, and an implementation specification is
safe against a reference when its interlock meets the reference's
functional specification.  Both are decided by the one property checker:
the other specification is derived into the reference derivation's
context and handed to ``check_equivalence_with_derived`` and
``check_functional``.
"""

import pytest
from conftest import with_replaced_flag

from repro.archs import load_architecture
from repro.checking import PropertyChecker
from repro.expr import Var, parse_expr
from repro.pipeline import ClosedFormInterlock
from repro.spec import (
    FunctionalSpec,
    StallClause,
    build_functional_spec,
    conservative_variant,
    symbolic_most_liberal,
)

ARCHITECTURES = ["dac2002-example", "risc5", "firepath-like", "fam-r4w2d5s1-bypass"]


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


def _replaced(spec, moe, condition, name):
    """``spec`` with the stall condition of ``moe`` replaced."""
    clauses = [
        StallClause(
            moe=clause.moe,
            condition=condition if clause.moe == moe else clause.condition,
            label=clause.label,
        )
        for clause in spec.clauses
    ]
    return FunctionalSpec(
        name=name, clauses=clauses, inputs=list(spec.inputs), metadata=dict(spec.metadata)
    )


def _compare(reference, other):
    """(functional report, equivalence report) of ``other``'s interlock against ``reference``."""
    derivation = symbolic_most_liberal(reference)
    checker = PropertyChecker(reference, derivation=derivation)
    interlock = ClosedFormInterlock.from_spec(other, context=derivation.context)
    return checker.check_functional(interlock), checker.check_equivalence_with_derived(interlock)


class TestDerivedEquivalence:
    @pytest.mark.parametrize("arch_name", ARCHITECTURES)
    def test_respelled_spec_induces_same_interlock(self, arch_name):
        spec = build_functional_spec(load_architecture(arch_name))
        functional, equivalence = _compare(spec, _respelled(spec))
        assert functional.all_hold()
        assert equivalence.all_hold()

    @pytest.mark.parametrize("arch_name", ARCHITECTURES)
    def test_conservative_variant_is_safe_but_slower(self, arch_name):
        arch = load_architecture(arch_name)
        spec = build_functional_spec(arch)
        functional, equivalence = _compare(spec, conservative_variant(arch))
        # It stalls whenever the reference requires (safe) ...
        assert functional.all_hold()
        # ... but it is not the maximum-performance interlock.
        assert not equivalence.all_hold()
        assert equivalence.failing_stages()

    def test_spec_is_equivalent_to_itself(self, example_spec):
        functional, equivalence = _compare(example_spec, example_spec)
        assert functional.all_hold() and equivalence.all_hold()

    def test_dropped_stall_reason_changes_the_interlock(self, example_spec):
        # Drop the WAIT disjunct from the long issue stage.
        weakened = _replaced(
            example_spec, "long.1.moe", parse_expr("long.1.rtm & !long.2.moe"), "weakened"
        )
        _, equivalence = _compare(example_spec, weakened)
        assert "long.1.moe" in equivalence.failing_stages()
        failure = next(r for r in equivalence.failures() if r.moe == "long.1.moe")
        assert failure.counterexample is not None

    def test_weakened_spec_is_not_safe(self, example_spec):
        weakened = _replaced(
            example_spec, "short.1.moe", parse_expr("short.1.rtm & !short.2.moe"), "weak"
        )
        functional, equivalence = _compare(example_spec, weakened)
        assert "short.1.moe" in functional.failing_stages()
        assert not equivalence.all_hold()

    def test_interlock_over_other_stages_rejected(self, example_spec, risc_spec):
        derivation = symbolic_most_liberal(example_spec)
        checker = PropertyChecker(example_spec, derivation=derivation)
        other = ClosedFormInterlock.from_spec(risc_spec, context=derivation.context)
        with pytest.raises(ValueError, match="drives no expression"):
            checker.check_equivalence_with_derived(other)


class TestInterlockEquivalence:
    def test_same_derivation_twice(self, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        again = ClosedFormInterlock.from_spec(example_spec, context=derivation.context)
        report = PropertyChecker(
            example_spec, derivation=derivation
        ).check_equivalence_with_derived(again)
        assert report.all_hold()

    def test_mutated_interlock_detected(self, example_spec, example_derivation, example_interlock):
        mutated = with_replaced_flag(
            example_interlock,
            "long.4.moe",
            example_interlock.expressions()["long.4.moe"] & ~Var("short.req"),
        )
        report = PropertyChecker(
            example_spec, derivation=example_derivation
        ).check_equivalence_with_derived(mutated)
        assert report.failing_stages() == ["long.4.moe"]
