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

import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..expr.ast import Expr
from ..expr.transform import substitute
from ..obs import get_registry
from ..pipeline.interlock import ClosedFormInterlock
from ..pipeline.structure import Architecture
from ..sat.interface import check_valid
from ..spec.derivation import DerivationResult, symbolic_most_liberal
from ..spec.functional import FunctionalSpec
from ..spec.properties import PropertyCheck
from ..symbolic import SymbolicContext, SymbolicFunction
from .environment import environment_assumptions, environment_formula


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


#: The claim of each clause check, from the substituted stall condition
#: and the implementation's moe flag.
_CLAUSE_CLAIMS = {
    "functional": lambda condition, moe: condition.implies(~moe),
    "performance": lambda condition, moe: (~moe).implies(condition),
    "combined": lambda condition, moe: condition.iff(~moe),
}


class _EnvironmentPartition:
    """The environment assumptions lifted one by one into a context.

    Assumptions that share a variable, directly or through other
    assumptions, form one component.  A claim is decided under the
    components its support touches, its cone (conjunctive partitioning,
    Burch, Clarke & Long 1991): the other components mention none of its
    variables, and every assumption holds with all of its signals low, so
    they cannot change the verdict; an assumption that fails this at the
    all-low point of its support raises ``ValueError`` here.  Each cone is
    conjoined once and kept.
    """

    def __init__(self, context: SymbolicContext, assumptions: Iterable[Expr]):
        self.context = context
        self._lifted = []
        for assumption in assumptions:
            function = context.lift(assumption)
            if not function.evaluate(dict.fromkeys(function.support(), False)):
                raise ValueError(
                    f"environment assumption {assumption} does not hold with all of its "
                    "signals low, so deciding a claim under its support cone only is unsound"
                )
            self._lifted.append(function)
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

    def _key(self, support: Iterable[str]) -> FrozenSet[int]:
        component_of = self._component_of
        return frozenset(component_of[name] for name in support if name in component_of)

    def built(self, support: Iterable[str]) -> bool:
        """Is the cone of ``support`` conjoined already?"""
        return self._key(support) in self.cones

    def cone(self, support: Iterable[str]) -> SymbolicFunction:
        """The conjunction of every component that mentions ``support``."""
        key = self._key(support)
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

    A closed-form interlock's closed forms never change, so each check of
    it is decided once per checker: the report is kept while the interlock
    lives (a weak key) and returned again, shared, on every later call.  So
    is the answer of :meth:`first_refutation`, which decides a check only up
    to its first refuted claim; the faults stage needs no more.
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
        # The BDD backend conditions a claim on its support cone only; the
        # SAT backend decides ``environment → claim`` whole.
        self._assumptions = (
            environment_assumptions(self.architecture)
            if backend == "bdd" and self.architecture is not None
            else []
        )
        self.environment = (
            environment_formula(self.architecture)
            if backend == "sat" and self.architecture is not None
            else None
        )
        self._partition: Optional[_EnvironmentPartition] = None
        self._derivation = derivation
        self._decided_in: Optional[SymbolicContext] = (
            derivation.context if derivation is not None and backend == "bdd" else None
        )
        # interlock -> {check kind: report, ("first", kind): refutation or
        # None}; an entry goes with its interlock.
        self._reports: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # Claims decided so far (folded, proved or refuted).
        self.claims = 0

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

    def _decided(self, outcome: str) -> None:
        self.claims += 1
        get_registry().inc("repro_checker_claims_total", outcome=outcome)

    def _folds(self, claim) -> bool:
        """Is ``claim`` a BDD claim valid without the environment (counted)?"""
        if self.backend == "bdd" and claim.is_true():
            self._decided("folded")
            return True
        return False

    def _cone_built(self, claim) -> bool:
        """Is the support cone that would decide this BDD claim built?"""
        partition = self._partition
        return (
            partition is not None
            and partition.context is claim.context
            and partition.built(claim.support())
        )

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
            if self._folds(claim):
                return True, None
            partition = self._partition
            if partition is None or partition.context is not context:
                partition = self._partition = _EnvironmentPartition(
                    context, self._assumptions
                )
            violation = ~claim & partition.cone(claim.support())
            if violation.is_false():
                self._decided("proved")
                return True, None
            self._decided("refuted")
            return False, violation.pick_one()
        if isinstance(claim, SymbolicFunction):
            claim = claim.to_expr()
        if self.environment is not None:
            claim = self.environment.implies(claim)
        decision = check_valid(claim)
        if decision.answer:
            self._decided("proved")
            return True, None
        self._decided("refuted")
        return False, decision.model

    def _claims(
        self, interlock: ClosedFormInterlock, kind: str
    ) -> Iterator[Tuple[str, str, object]]:
        """``(name, moe, claim)`` for each flag of one check, built lazily.

        A clause check's claim is ``build(F_i∘impl, impl_i)`` per clause;
        an equivalence claim is ``impl_i ↔ derived_i`` per moe flag.
        """
        implementation = self._implementation_map(interlock)
        if kind == "equivalence":
            for moe, reference in self._derived(interlock).items():
                yield f"equivalence::{moe}", moe, implementation[moe].iff(reference)
            return
        build = _CLAUSE_CLAIMS[kind]
        if self.backend == "bdd":
            context = interlock.context
            nodes = {moe: function.node for moe, function in implementation.items()}

            def substituted(condition):
                lifted = context.lift(condition).node
                return context.function(context.manager.compose_many(lifted, nodes))

        else:

            def substituted(condition):
                return substitute(condition, implementation)

        for clause in self.spec.clauses:
            yield (
                f"{kind}::{clause.label or clause.moe}",
                clause.moe,
                build(substituted(clause.condition), implementation[clause.moe]),
            )

    def _report(self, interlock: ClosedFormInterlock, kind: str) -> CheckReport:
        """Decide every claim of one check, once per interlock."""
        reports = self._reports.setdefault(interlock, {})
        if kind in reports:
            return reports[kind]
        spec_name = self.spec.name
        report = CheckReport(
            implementation=interlock.name,
            spec_name=f"derived({spec_name})" if kind == "equivalence" else spec_name,
            backend=self.backend,
        )
        for name, moe, claim in self._claims(interlock, kind):
            holds, counterexample = self._prove(claim)
            report.results.append(
                PropertyCheck(name=name, holds=holds, counterexample=counterexample, moe=moe)
            )
        reports[kind] = report
        return report

    # -- checks ------------------------------------------------------------------------

    def check_functional(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never misses a required stall."""
        return self._report(interlock, "functional")

    def check_performance(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove, per stage, that the implementation never stalls unnecessarily."""
        return self._report(interlock, "performance")

    def check_combined(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove both halves at once (``condition ↔ ¬moe`` per stage)."""
        return self._report(interlock, "combined")

    def check_equivalence_with_derived(self, interlock: ClosedFormInterlock) -> CheckReport:
        """Prove the implementation equals the derived maximum-performance interlock."""
        return self._report(interlock, "equivalence")

    def first_refutation(
        self, interlock: ClosedFormInterlock, kind: str
    ) -> Optional[PropertyCheck]:
        """The first refuted claim of one check, or None when every claim holds.

        ``kind`` is ``"functional"`` or ``"equivalence"``.  The verdict is
        that of the full report (``None`` exactly when it ``all_hold()``),
        with the least proof: claims that fold to TRUE without the
        environment are skipped, claims whose support cone is already
        built are decided first, and deciding stops at the first
        refutation.  Which refuted claim comes back may depend on what the
        checker decided before; whether one does, does not.  The answer is
        kept with the interlock's reports, and a full report of the same
        kind, when one exists, answers it.
        """
        if kind not in ("functional", "equivalence"):
            raise ValueError(f"kind must be 'functional' or 'equivalence', got {kind!r}")
        reports = self._reports.setdefault(interlock, {})
        if kind in reports:
            return next(iter(reports[kind].failures()), None)
        key = ("first", kind)
        if key not in reports:
            pending = [
                (name, moe, claim)
                for name, moe, claim in self._claims(interlock, kind)
                if not self._folds(claim)
            ]
            # Stable: a claim whose cone is built keeps its flag order.
            pending.sort(key=lambda item: not self._cone_built(item[2]))
            refutation = None
            for name, moe, claim in pending:
                holds, counterexample = self._prove(claim)
                if not holds:
                    refutation = PropertyCheck(
                        name=name, holds=False, counterexample=counterexample, moe=moe
                    )
                    break
            reports[key] = refutation
        return reports[key]

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

