"""Formal property checking of interlock implementations against specifications.

This is the "more thorough approach" of Section 4: instead of relying on a
testbench triggering an assertion, the closed-form interlock implementation
is substituted into the specification and validity is decided exhaustively
over the whole control-input space — with BDDs or with the SAT solver.

The checker answers three questions for a combinational implementation:

* does it satisfy the **functional** specification (no missing stalls)?
* does it satisfy the **performance** specification (no unnecessary stalls)?
* is it **equivalent** to the unique maximum-performance implementation?

Counterexamples are returned as concrete input valuations that a testbench
could replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..expr.transform import substitute
from ..pipeline.interlock import ClosedFormInterlock
from ..pipeline.structure import Architecture
from ..sat.interface import check_valid
from ..spec.derivation import DerivationResult, symbolic_most_liberal
from ..spec.functional import FunctionalSpec
from ..symbolic import SymbolicContext, SymbolicFunction
from .environment import environment_formula


@dataclass
class PropertyResult:
    """Outcome of checking one per-stage property."""

    name: str
    moe: str
    holds: bool
    counterexample: Optional[Dict[str, bool]] = None

    def describe(self) -> str:
        """Single-line rendering."""
        status = "proved" if self.holds else "FAILED"
        return f"{self.name} [{self.moe}]: {status}"


@dataclass
class CheckReport:
    """All property results for one implementation."""

    implementation: str
    spec_name: str
    backend: str
    results: List[PropertyResult] = field(default_factory=list)

    def all_hold(self) -> bool:
        """True when every checked property was proved."""
        return all(result.holds for result in self.results)

    def failures(self) -> List[PropertyResult]:
        """The properties that failed, with counterexamples."""
        return [result for result in self.results if not result.holds]

    def failing_stages(self) -> List[str]:
        """Moe flags whose properties failed."""
        return sorted({result.moe for result in self.failures()})

    def describe(self) -> str:
        """Multi-line report."""
        lines = [
            f"Property check of {self.implementation} against {self.spec_name} "
            f"({self.backend} backend):"
        ]
        lines.extend(f"  {result.describe()}" for result in self.results)
        verdict = "all properties proved" if self.all_hold() else (
            f"{len(self.failures())} propert(ies) failed"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


class PropertyChecker:
    """Checks closed-form interlock implementations exhaustively.

    With BDDs every claim is decided in the interlock's own context, by
    composition and pointer comparison; the checker owns no manager.  The
    SAT backend substitutes the materialized closed forms into the clause
    expressions instead, so it stays an independent oracle.

    ``derivation``, when given, must be the derivation of ``spec``; the
    equivalence check reuses it for interlocks in its context instead of
    deriving the spec again.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        architecture: Optional[Architecture] = None,
        backend: str = "bdd",
        derivation: Optional[DerivationResult] = None,
    ):
        if backend not in ("bdd", "sat"):
            raise ValueError(f"backend must be 'bdd' or 'sat', got {backend!r}")
        self.spec = spec
        self.backend = backend
        self.architecture = architecture or spec.metadata.get("architecture")
        if self.architecture is not None:
            self.environment = environment_formula(self.architecture)
        else:
            self.environment = None
        self._derivation = derivation
        self._decided_in: Optional[SymbolicContext] = (
            derivation.context if derivation is not None and backend == "bdd" else None
        )

    def kernel_stats(self) -> Optional[Dict[str, float]]:
        """Counters of the BDD manager the checker last decided in (or None)."""
        if self._decided_in is None:
            return None
        return self._decided_in.manager.stats().as_dict()

    # -- helpers --------------------------------------------------------------------

    def _implementation_map(self, interlock: ClosedFormInterlock) -> Dict[str, object]:
        """The closed forms per flag: SymbolicFunctions with BDDs, Exprs with SAT."""
        if self.backend == "bdd":
            implementation = interlock.functions()
        else:
            implementation = interlock.expressions()
        missing = set(self.spec.moe_flags()) - set(implementation)
        if missing:
            raise ValueError(
                f"implementation {interlock.name!r} drives no expression for "
                f"{sorted(missing)}"
            )
        return implementation

    def _derived(self, interlock: ClosedFormInterlock) -> Dict[str, object]:
        """The derived closed forms, from a derivation in the interlock's context."""
        derivation = self._derivation
        if derivation is None or (
            self.backend == "bdd" and derivation.context is not interlock.context
        ):
            derivation = self._derivation = symbolic_most_liberal(
                self.spec, context=interlock.context
            )
        if self.backend == "bdd":
            return derivation.moe_functions
        return derivation.moe_expressions

    def _prove(self, claim) -> (bool, Optional[Dict[str, bool]]):
        """Prove one obligation under the environment assumptions.

        With BDDs ``claim`` is a :class:`~repro.symbolic.SymbolicFunction`,
        decided in its own context with the environment formula lifted
        there (cached across claims); the SAT backend decides expressions.
        """
        if self.backend == "bdd":
            context = self._decided_in = claim.context
            # A claim valid on its own needs no environment: skip lifting it.
            if self.environment is not None and not claim.is_true():
                claim = context.lift(self.environment).implies(claim)
            if claim.is_true():
                return True, None
            return False, claim.counterexample()
        if isinstance(claim, SymbolicFunction):
            claim = claim.to_expr()
        if self.environment is not None:
            claim = self.environment.implies(claim)
        decision = check_valid(claim)
        if decision.answer:
            return True, None
        return False, decision.model

    def _prove_equivalence(self, left, right) -> (bool, Optional[Dict[str, bool]]):
        """Prove ``left ↔ right`` (under the environment) without an iff BDD.

        ``env → (left ↔ right)`` is valid exactly when ``env ∧ left`` and
        ``env ∧ right`` are the same function — a pointer comparison after
        two conjunctions, instead of the much larger iff product.  On
        failure a differing assignment is recovered by walking the two
        conjunction DAGs in lock step.  The SAT backend decides the iff.
        """
        if self.backend != "bdd":
            return self._prove(left.iff(right))
        context = self._decided_in = left.context
        if self.environment is not None and not left.equivalent(right):
            environment = context.lift(self.environment)
            left = environment & left
            right = environment & right
        if left.equivalent(right):
            return True, None
        return False, left.find_difference(right)

    def _check_clauses(
        self, interlock: ClosedFormInterlock, kind: str, decide: Callable
    ) -> CheckReport:
        """Decide ``decide(F_i∘impl, impl_i)`` for every clause."""
        implementation = self._implementation_map(interlock)
        if self.backend == "bdd":
            context = interlock.context
            nodes = {moe: function.node for moe, function in implementation.items()}

            def substituted(condition):
                lifted = context.lift(condition).node
                return context.function(context.manager.compose_many(lifted, nodes))

        else:

            def substituted(condition):
                return substitute(condition, implementation)

        report = CheckReport(
            implementation=interlock.name, spec_name=self.spec.name, backend=self.backend
        )
        for clause in self.spec.clauses:
            holds, counterexample = decide(
                substituted(clause.condition), implementation[clause.moe]
            )
            report.results.append(
                PropertyResult(
                    name=f"{kind}::{clause.label or clause.moe}",
                    moe=clause.moe,
                    holds=holds,
                    counterexample=counterexample,
                )
            )
        return report

    # -- checks ------------------------------------------------------------------------

    def check_functional(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never misses a required stall."""
        return self._check_clauses(
            interlock, "functional", lambda condition, moe: self._prove(condition.implies(~moe))
        )

    def check_performance(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never stalls unnecessarily."""
        return self._check_clauses(
            interlock, "performance", lambda condition, moe: self._prove((~moe).implies(condition))
        )

    def check_combined(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove both halves at once (``condition ↔ ¬moe`` per stage)."""
        return self._check_clauses(
            interlock, "combined", lambda condition, moe: self._prove_equivalence(condition, ~moe)
        )

    def check_equivalence_with_derived(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove the implementation equals the derived maximum-performance interlock."""
        implementation = self._implementation_map(interlock)
        report = CheckReport(
            implementation=interlock.name,
            spec_name=f"derived({self.spec.name})",
            backend=self.backend,
        )
        for moe, reference in self._derived(interlock).items():
            holds, counterexample = self._prove_equivalence(implementation[moe], reference)
            report.results.append(
                PropertyResult(
                    name=f"equivalence::{moe}", moe=moe, holds=holds, counterexample=counterexample
                )
            )
        return report

    def check_obligations(
        self,
        obligations: Mapping[str, object],
        name: str = "obligation",
    ) -> CheckReport:
        """Prove a set of per-stage obligations handed over as functions.

        Layers that already hold canonical BDD artefacts — the derivation's
        per-stage claims, refinement conditions built with
        :class:`~repro.symbolic.SymbolicFunction` arithmetic — pass them
        directly, keyed by moe flag.  With the BDD backend each obligation
        is decided in its own context under the checker's environment
        assumptions, without materializing any expression; the SAT backend
        also accepts plain expressions.
        """
        report = CheckReport(
            implementation=name, spec_name=self.spec.name, backend=self.backend
        )
        for moe, claim in obligations.items():
            holds, counterexample = self._prove(claim)
            report.results.append(
                PropertyResult(
                    name=f"{name}::{moe}",
                    moe=moe,
                    holds=holds,
                    counterexample=counterexample,
                )
            )
        return report

