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
from typing import Dict, List, Mapping, Optional

from ..bdd.ordering import register_interleaved_order
from ..expr.ast import Expr, Not
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

    ``derivation``, when given, must be the derivation of ``spec``; the
    equivalence check then reuses it instead of deriving the spec again.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        architecture: Optional[Architecture] = None,
        use_environment: bool = True,
        backend: str = "bdd",
        derivation: Optional[DerivationResult] = None,
    ):
        if backend not in ("bdd", "sat"):
            raise ValueError(f"backend must be 'bdd' or 'sat', got {backend!r}")
        self.spec = spec
        self.backend = backend
        self.architecture = architecture or spec.metadata.get("architecture")
        if use_environment and self.architecture is not None:
            self.environment = environment_formula(self.architecture)
        else:
            self.environment = None
        # One shared BDD context per checker: the environment formula, the
        # specification conditions and the derived moe equations are compiled
        # once and reused across every claim (a campaign may prove hundreds).
        # Register-interleaved, like the derivation's own manager: in
        # declaration order the scoreboard terms blow up exponentially in
        # the register count.
        self._context = (
            SymbolicContext(register_interleaved_order(spec.input_signals()))
            if backend == "bdd"
            else None
        )
        self._derivation = derivation

    def kernel_stats(self) -> Optional[Dict[str, float]]:
        """Counters of the checker's shared BDD manager (None with SAT)."""
        if self._context is None:
            return None
        return self._context.manager.stats().as_dict()

    # -- helpers --------------------------------------------------------------------

    def _implementation_map(self, interlock: ClosedFormInterlock) -> Dict[str, Expr]:
        expressions = interlock.expressions()
        missing = set(self.spec.moe_flags()) - set(expressions)
        if missing:
            raise ValueError(
                f"implementation {interlock.name!r} drives no expression for "
                f"{sorted(missing)}"
            )
        return expressions

    def _derived_expressions(self) -> Dict[str, Expr]:
        """The derived maximum-performance moe equations, computed once."""
        if self._derivation is None:
            self._derivation = symbolic_most_liberal(self.spec)
        return self._derivation.moe_expressions

    def _prove(self, claim) -> (bool, Optional[Dict[str, bool]]):
        """Prove one obligation under the environment assumptions.

        ``claim`` may be an :class:`~repro.expr.ast.Expr`, lifted into the
        checker's shared context, or a
        :class:`~repro.symbolic.SymbolicFunction`, decided in *its* context.
        Either way the environment formula is lifted into that context
        (cached there across claims); only the SAT backend needs a
        materialized form.
        """
        if self.backend == "bdd":
            if isinstance(claim, SymbolicFunction):
                context = claim.context
            else:
                context = self._context
            function = context.lift(claim)
            if self.environment is not None:
                function = context.lift(self.environment).implies(function)
            if function.is_true():
                return True, None
            return False, function.counterexample()
        if isinstance(claim, SymbolicFunction):
            claim = claim.to_expr()
        if self.environment is not None:
            claim = self.environment.implies(claim)
        decision = check_valid(claim)
        if decision.answer:
            return True, None
        return False, decision.model

    def _prove_equivalence(self, left: Expr, right: Expr) -> (bool, Optional[Dict[str, bool]]):
        """Prove ``left ↔ right`` (under the environment) without an iff BDD.

        ``env → (left ↔ right)`` is valid exactly when ``env ∧ left`` and
        ``env ∧ right`` are the same function — a pointer comparison after
        two conjunctions, instead of the much larger iff product.  On
        failure a differing assignment is recovered by walking the two
        conjunction DAGs in lock step.
        """
        if self.backend != "bdd":
            return self._prove(left.iff(right))
        context = self._context
        left_function = context.lift(left)
        right_function = context.lift(right)
        if self.environment is not None:
            environment = context.lift(self.environment)
            left_function = environment & left_function
            right_function = environment & right_function
        if left_function.equivalent(right_function):
            return True, None
        return False, left_function.find_difference(right_function)

    # -- checks ------------------------------------------------------------------------

    def check_functional(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never misses a required stall."""
        implementation = self._implementation_map(interlock)
        report = CheckReport(
            implementation=interlock.name, spec_name=self.spec.name, backend=self.backend
        )
        for clause in self.spec.clauses:
            condition = substitute(clause.condition, implementation)
            claim = condition.implies(Not(implementation[clause.moe]))
            holds, counterexample = self._prove(claim)
            report.results.append(
                PropertyResult(
                    name=f"functional::{clause.label or clause.moe}",
                    moe=clause.moe,
                    holds=holds,
                    counterexample=counterexample,
                )
            )
        return report

    def check_performance(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never stalls unnecessarily."""
        implementation = self._implementation_map(interlock)
        report = CheckReport(
            implementation=interlock.name, spec_name=self.spec.name, backend=self.backend
        )
        for clause in self.spec.clauses:
            condition = substitute(clause.condition, implementation)
            claim = Not(implementation[clause.moe]).implies(condition)
            holds, counterexample = self._prove(claim)
            report.results.append(
                PropertyResult(
                    name=f"performance::{clause.label or clause.moe}",
                    moe=clause.moe,
                    holds=holds,
                    counterexample=counterexample,
                )
            )
        return report

    def check_combined(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove both halves at once (``condition ↔ ¬moe`` per stage)."""
        implementation = self._implementation_map(interlock)
        report = CheckReport(
            implementation=interlock.name, spec_name=self.spec.name, backend=self.backend
        )
        for clause in self.spec.clauses:
            condition = substitute(clause.condition, implementation)
            holds, counterexample = self._prove_equivalence(
                condition, Not(implementation[clause.moe])
            )
            report.results.append(
                PropertyResult(
                    name=f"combined::{clause.label or clause.moe}",
                    moe=clause.moe,
                    holds=holds,
                    counterexample=counterexample,
                )
            )
        return report

    def check_equivalence_with_derived(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove the implementation equals the derived maximum-performance interlock."""
        implementation = self._implementation_map(interlock)
        report = CheckReport(
            implementation=interlock.name,
            spec_name=f"derived({self.spec.name})",
            backend=self.backend,
        )
        for moe, derived_expression in self._derived_expressions().items():
            holds, counterexample = self._prove_equivalence(
                implementation[moe], derived_expression
            )
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
        directly, keyed by moe flag; plain expressions are accepted too.
        With the BDD backend a symbolic obligation is decided in its own
        context under the checker's environment assumptions, without
        materializing any expression.
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


def check_implementation(
    spec: FunctionalSpec,
    interlock: ClosedFormInterlock,
    architecture: Optional[Architecture] = None,
    backend: str = "bdd",
) -> Dict[str, CheckReport]:
    """Run the functional, performance and combined checks in one call."""
    checker = PropertyChecker(spec, architecture=architecture, backend=backend)
    return {
        "functional": checker.check_functional(interlock),
        "performance": checker.check_performance(interlock),
        "combined": checker.check_combined(interlock),
    }
