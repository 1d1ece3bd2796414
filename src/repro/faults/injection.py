"""Fault injection into interlock implementations.

The paper's results section reports three kinds of defect found in the
FirePath flow control: unnecessary stalls (performance bugs), control errors
that would cause hazards (functional bugs), and incorrect initialisation
values of control signals.  To reproduce the detection experiment without
the proprietary RTL we *inject* representative defects of each class into
the known-good derived interlock and measure what the assertions and the
property checker report.

Expression-level faults are injected at the *specification* level (the
target stage's stall condition is strengthened or weakened) and the whole
closed form is re-derived.  This keeps the mutated interlock internally
consistent — a strengthened condition yields a conservative design whose
only symptom is unnecessary stalls, a weakened condition yields an
optimistic design whose symptom is hazards — so the ground-truth fault class
matches what a correct detector should report.  Initialisation faults wrap
the interlock and force flag values for the first cycles after reset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, List, Optional

from ..expr.ast import Expr, FALSE, Or, TRUE, Var
from ..expr.transform import simplify
from ..pipeline.interlock import ClosedFormInterlock, Interlock, StuckResetInterlock
from ..spec.derivation import DerivationResult, symbolic_most_liberal
from ..spec.functional import FunctionalSpec, StallClause


class FaultClass(Enum):
    """Ground-truth classification of an injected defect."""

    PERFORMANCE = "performance"  # extra stalls, functionally safe
    FUNCTIONAL = "functional"  # missing stalls, can cause hazards
    INITIALISATION = "initialisation"  # wrong values right after reset


@dataclass
class InjectedFault:
    """One injected defect together with the mutated interlock."""

    fault_class: FaultClass
    target_moe: str
    description: str
    interlock: Interlock
    mutated_spec: Optional[FunctionalSpec] = None
    seed: Optional[int] = None

    def describe(self) -> str:
        """Single-line rendering."""
        return f"[{self.fault_class.value}] {self.target_moe}: {self.description}"


class FaultInjector:
    """Generates mutated interlocks from a functional specification.

    ``derivation``, when given, must be the derivation of ``spec`` (a job
    passes the one its derive stage produced); otherwise the spec is
    derived here.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        seed: int = 0,
        derivation: Optional[DerivationResult] = None,
    ):
        self.spec = spec
        self.seed = seed
        self.derivation = (
            derivation if derivation is not None else symbolic_most_liberal(spec)
        )
        self.reference = ClosedFormInterlock.from_derivation(self.derivation)

    # -- spec mutation plumbing ------------------------------------------------------------

    def _respecify(self, moe: str, new_condition: Expr, suffix: str) -> FunctionalSpec:
        """A copy of the spec with one stage's stall condition replaced."""
        clauses = []
        for clause in self.spec.clauses:
            if clause.moe == moe:
                clauses.append(
                    StallClause(
                        moe=clause.moe,
                        condition=simplify(new_condition),
                        label=clause.label,
                    )
                )
            else:
                clauses.append(clause)
        return FunctionalSpec(
            name=f"{self.spec.name}-{suffix}",
            clauses=clauses,
            inputs=list(self.spec.inputs),
            metadata=dict(self.spec.metadata),
        )

    def _interlock_for(self, mutated_spec: FunctionalSpec, name: str) -> ClosedFormInterlock:
        """Derive a mutant into the reference's context (shared nodes, pointer checks)."""
        return ClosedFormInterlock.from_spec(
            mutated_spec, name=name, context=self.derivation.context
        )

    # -- individual fault models --------------------------------------------------------------

    def extra_stall_fault(self, moe: str, trigger: Optional[Expr] = None) -> InjectedFault:
        """Performance bug: the stage also stalls when an unrelated input is true.

        By default the trigger is a primary input the stage's real stall
        condition does not mention — exactly the "stall with no functional
        justification" the paper hunts for.  The extra condition is added to
        the specification and the interlock re-derived, so it propagates
        consistently to the upstream stages (a conservative but hazard-free
        design).
        """
        rng = random.Random(self.seed)
        if trigger is None:
            used = self.spec.condition_for(moe).variables()
            candidates = [name for name in self.spec.input_signals() if name not in used]
            if not candidates:
                candidates = self.spec.input_signals()
            trigger = Var(rng.choice(sorted(candidates)))
        original = self.spec.condition_for(moe)
        mutated_spec = self._respecify(moe, Or(original, trigger), "extra-stall")
        interlock = self._interlock_for(mutated_spec, f"perf-fault({moe})")
        return InjectedFault(
            fault_class=FaultClass.PERFORMANCE,
            target_moe=moe,
            description=f"stalls additionally whenever {trigger!r} holds",
            interlock=interlock,
            mutated_spec=mutated_spec,
            seed=self.seed,
        )

    def missing_term_fault(self, moe: str, term_index: Optional[int] = None) -> InjectedFault:
        """Functional bug: one disjunct of the stage's stall condition is ignored."""
        condition = self.spec.condition_for(moe)
        disjuncts = list(condition.operands) if isinstance(condition, Or) else [condition]
        rng = random.Random(self.seed)
        if term_index is None:
            term_index = rng.randrange(len(disjuncts))
        if not 0 <= term_index < len(disjuncts):
            raise IndexError(
                f"stall condition of {moe} has {len(disjuncts)} disjuncts, "
                f"index {term_index} is out of range"
            )
        kept = [d for i, d in enumerate(disjuncts) if i != term_index]
        if not kept:
            weakened: Expr = FALSE
        elif len(kept) == 1:
            weakened = kept[0]
        else:
            weakened = Or(*kept)
        mutated_spec = self._respecify(moe, weakened, "missing-term")
        interlock = self._interlock_for(mutated_spec, f"func-fault({moe})")
        dropped = disjuncts[term_index]
        return InjectedFault(
            fault_class=FaultClass.FUNCTIONAL,
            target_moe=moe,
            description=f"ignores the stall condition disjunct {dropped!r}",
            interlock=interlock,
            mutated_spec=mutated_spec,
            seed=self.seed,
        )

    def stuck_stall_fault(self, moe: str) -> InjectedFault:
        """Performance bug: the stage stalls unconditionally (moe stuck low)."""
        mutated_spec = self._respecify(moe, TRUE, "always-stall")
        interlock = self._interlock_for(mutated_spec, f"stuck-stall({moe})")
        return InjectedFault(
            fault_class=FaultClass.PERFORMANCE,
            target_moe=moe,
            description="stalls unconditionally (moe flag effectively stuck at 0)",
            interlock=interlock,
            mutated_spec=mutated_spec,
            seed=self.seed,
        )

    def never_stall_fault(self, moe: str) -> InjectedFault:
        """Functional bug: the stage never stalls (moe stuck high)."""
        mutated_spec = self._respecify(moe, FALSE, "never-stall")
        interlock = self._interlock_for(mutated_spec, f"never-stall({moe})")
        return InjectedFault(
            fault_class=FaultClass.FUNCTIONAL,
            target_moe=moe,
            description="never stalls (moe flag effectively stuck at 1)",
            interlock=interlock,
            mutated_spec=mutated_spec,
            seed=self.seed,
        )

    def bad_reset_fault(self, moe: str, value: bool, cycles: int = 4) -> InjectedFault:
        """Initialisation bug: the flag is forced to a value for the first cycles."""
        interlock = StuckResetInterlock(
            self.reference,
            forced_values={moe: value},
            cycles=cycles,
            name=f"bad-reset({moe}={int(value)})",
        )
        return InjectedFault(
            fault_class=FaultClass.INITIALISATION,
            target_moe=moe,
            description=(
                f"comes out of reset with {moe} forced to {int(value)} for {cycles} cycles"
            ),
            interlock=interlock,
            seed=self.seed,
        )

    # -- fault sets ----------------------------------------------------------------------------

    def standard_fault_set(
        self, reset_cycles: int = 4, limit: Optional[int] = None
    ) -> List[InjectedFault]:
        """A deterministic set covering every stage with every fault class.

        For every pipeline stage whose stall condition is non-trivial this
        produces an extra-stall fault, a missing-term fault, an
        unconditional-stall fault, a never-stall fault and a bad-reset fault.

        Most faults re-derive a mutated interlock, so with ``limit`` only
        the first ``limit`` faults of that order are built (the result
        equals ``standard_fault_set()[:limit]``).
        """
        builders: List[Callable[[], InjectedFault]] = []
        for clause in self.spec.clauses:
            moe = clause.moe
            builders.append(partial(self.extra_stall_fault, moe))
            if clause.condition != FALSE:
                builders.append(partial(self.missing_term_fault, moe, term_index=0))
                builders.append(partial(self.never_stall_fault, moe))
            builders.append(partial(self.stuck_stall_fault, moe))
            builders.append(
                partial(self.bad_reset_fault, moe, value=False, cycles=reset_cycles)
            )
        if limit is not None:
            builders = builders[:limit]
        return [build() for build in builders]
