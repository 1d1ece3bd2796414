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
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..expr.ast import Expr
from ..expr.builders import big_and
from ..expr.transform import substitute
from ..pipeline.interlock import ClosedFormInterlock
from ..pipeline.structure import Architecture
from ..sat.interface import check_valid
from ..spec.derivation import DerivationResult, symbolic_most_liberal
from ..spec.functional import FunctionalSpec
from ..spec.properties import PropertyCheck
from ..symbolic import SymbolicContext, SymbolicFunction
from .environment import environment_assumptions


@dataclass
class CheckReport:
    """All property results for one implementation."""

    implementation: str
    spec_name: str
    backend: str
    results: List[PropertyCheck] = field(default_factory=list)

    def all_hold(self) -> bool:
        """True when every checked property was proved."""
        return all(result.holds for result in self.results)

    def failures(self) -> List[PropertyCheck]:
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
        lines.extend(
            f"  {result.name} [{result.moe}]: {'proved' if result.holds else 'FAILED'}"
            for result in self.results
        )
        verdict = "all properties proved" if self.all_hold() else (
            f"{len(self.failures())} propert(ies) failed"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


class _EnvironmentPartition:
    """The environment assumptions lifted one by one into a context.

    Assumptions that share a variable, directly or through other
    assumptions, form one component.  A claim is decided under the
    components its support touches, its cone (conjunctive partitioning,
    Burch, Clarke & Long 1991): the other components mention none of its
    variables, and every assumption holds with all of its signals low, so
    they cannot change the verdict.  Each cone is conjoined once and kept.
    """

    def __init__(self, context: SymbolicContext, assumptions: Iterable[Expr]):
        self.context = context
        self._lifted = [context.lift(assumption) for assumption in assumptions]
        component_of: Dict[str, int] = {}
        components: Dict[int, Tuple[List[int], Set[str]]] = {}
        for index, function in enumerate(self._lifted):
            members, names = [index], set(function.support())
            for joined in {component_of[name] for name in names if name in component_of}:
                joined_members, joined_names = components.pop(joined)
                members += joined_members
                names |= joined_names
            components[index] = (members, names)
            component_of.update(dict.fromkeys(names, index))
        self._component_of = component_of
        self._members = {index: members for index, (members, _) in components.items()}
        self.cones: Dict[FrozenSet[int], SymbolicFunction] = {}

    def cone(self, support: Iterable[str]) -> SymbolicFunction:
        """The conjunction of every component that mentions ``support``."""
        component_of = self._component_of
        key = frozenset(component_of[name] for name in support if name in component_of)
        cone = self.cones.get(key)
        if cone is None:
            # In assumption order, as the whole environment would be conjoined.
            members = sorted(member for index in key for member in self._members[index])
            nodes = [self._lifted[member].node for member in members]
            cone = self.cones[key] = self.context.function(
                self.context.manager.and_all(nodes)
            )
        return cone


class PropertyChecker:
    """Checks closed-form interlock implementations exhaustively.

    With BDDs every claim is decided in the interlock's own context, by
    composition and pointer comparison; the checker owns no manager.  A
    claim that fails alone is decided under the environment assumptions in
    its support cone only (see :class:`_EnvironmentPartition`), never under
    the monolithic environment.  The SAT backend substitutes the
    materialized closed forms into the clause expressions and decides
    ``environment → claim`` whole, so it stays an independent oracle.

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
        self._assumptions = (
            environment_assumptions(self.architecture)
            if self.architecture is not None
            else []
        )
        # The SAT backend decides ``environment → claim`` whole; the BDD
        # backend conditions a claim on its support cone only.
        self.environment = (
            big_and(self._assumptions)
            if backend == "sat" and self.architecture is not None
            else None
        )
        self._partition: Optional[_EnvironmentPartition] = None
        self._derivation = derivation
        self._decided_in: Optional[SymbolicContext] = (
            derivation.context if derivation is not None and backend == "bdd" else None
        )

    def release_cones(self) -> None:
        """Drop the conjoined support cones; the lifted assumptions stay.

        Cones follow the supports of the claims decided so far, so a
        checker kept across jobs releases them between jobs, or its
        context would grow with every new claim support.
        """
        if self._partition is not None:
            self._partition.cones.clear()

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
        decided in its own context.  A claim valid alone is proved at once
        (so is an iff of two equal nodes, which the manager folds to TRUE).
        Otherwise ``¬claim`` is conjoined with the assumptions in its
        support cone only; the claim holds when that product is FALSE, and
        a satisfying assignment of it is the counterexample.  The SAT
        backend decides ``environment → claim`` on expressions, so it stays
        an independent oracle.
        """
        if self.backend == "bdd":
            context = self._decided_in = claim.context
            if claim.is_true():
                return True, None
            partition = self._partition
            if partition is None or partition.context is not context:
                partition = self._partition = _EnvironmentPartition(
                    context, self._assumptions
                )
            violation = ~claim & partition.cone(claim.support())
            if violation.is_false():
                return True, None
            return False, violation.pick_one()
        if isinstance(claim, SymbolicFunction):
            claim = claim.to_expr()
        if self.environment is not None:
            claim = self.environment.implies(claim)
        decision = check_valid(claim)
        if decision.answer:
            return True, None
        return False, decision.model

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
                PropertyCheck(
                    name=f"{kind}::{clause.label or clause.moe}",
                    holds=holds,
                    counterexample=counterexample,
                    moe=clause.moe,
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
            interlock, "combined", lambda condition, moe: self._prove(condition.iff(~moe))
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
            holds, counterexample = self._prove(implementation[moe].iff(reference))
            report.results.append(
                PropertyCheck(
                    name=f"equivalence::{moe}", holds=holds, counterexample=counterexample, moe=moe
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
                PropertyCheck(
                    name=f"{name}::{moe}",
                    holds=holds,
                    counterexample=counterexample,
                    moe=moe,
                )
            )
        return report

