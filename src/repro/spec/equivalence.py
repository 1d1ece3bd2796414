"""Equivalence and refinement between specifications and implementations.

Section 4 of the paper reports that "in several cases, functional
equivalence of different implementations needed to be established before a
more abstract description was accepted across the design teams" — the
canonical example being shunt (decoupling) stages, where the same abstract
flow-control behaviour can be implemented in several ways.

This module provides those comparisons at both levels:

* **clause level** — are two functional specifications the same
  specification, i.e. is every per-stage stall condition logically
  equivalent?
* **derived level** — do two functional specifications induce the same
  maximum-performance interlock, i.e. are the closed forms of their most
  liberal moe assignments equivalent?  Two textually different
  specifications (one per design team) are interchangeable exactly when
  this holds.
* **refinement** — a one-sided comparison: an implementation specification
  *functionally refines* a reference when it stalls at least whenever the
  reference requires a stall (it is safe), and *performance-refines* it
  when it stalls at most when the reference allows (it is no slower).
  Equivalence is refinement in both directions.
* **implementation level** — are two closed-form interlocks the same
  boolean function per moe flag?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..bdd.ordering import register_interleaved_order
from ..expr.ast import Expr, variables_of
from ..symbolic import SymbolicContext, SymbolicFunction
from .derivation import symbolic_most_liberal
from .functional import FunctionalSpec, SpecificationError

__all__ = [
    "FlagComparison",
    "EquivalenceReport",
    "RefinementReport",
    "check_clause_equivalence",
    "check_derived_equivalence",
    "check_refinement",
    "interlocks_equivalent",
]


@dataclass
class FlagComparison:
    """Comparison outcome for one moe flag."""

    moe: str
    equivalent: bool
    forward_holds: bool
    backward_holds: bool
    counterexample: Optional[Dict[str, bool]] = None

    def describe(self) -> str:
        """Single-line rendering."""
        if self.equivalent:
            return f"{self.moe}: equivalent"
        direction = []
        if not self.forward_holds:
            direction.append("A does not cover B")
        if not self.backward_holds:
            direction.append("B does not cover A")
        return f"{self.moe}: DIFFER ({'; '.join(direction)})"


@dataclass
class EquivalenceReport:
    """Per-flag equivalence results between two specifications."""

    name_a: str
    name_b: str
    level: str
    flags: List[FlagComparison] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        """True when every compared flag is equivalent."""
        return all(flag.equivalent for flag in self.flags)

    def differing_flags(self) -> List[str]:
        """Moe flags whose conditions/closed forms differ."""
        return [flag.moe for flag in self.flags if not flag.equivalent]

    def describe(self) -> str:
        """Multi-line report."""
        lines = [
            f"{self.level} comparison of {self.name_a!r} and {self.name_b!r}:"
        ]
        lines.extend(f"  {flag.describe()}" for flag in self.flags)
        lines.append(
            "  => equivalent" if self.equivalent
            else f"  => differ on {', '.join(self.differing_flags())}"
        )
        return "\n".join(lines)


@dataclass
class RefinementReport:
    """Per-flag refinement results of an implementation spec against a reference."""

    implementation: str
    reference: str
    flags: List[FlagComparison] = field(default_factory=list)

    @property
    def functionally_refines(self) -> bool:
        """The implementation stalls whenever the reference requires a stall."""
        return all(flag.forward_holds for flag in self.flags)

    @property
    def performance_refines(self) -> bool:
        """The implementation stalls only when the reference allows a stall."""
        return all(flag.backward_holds for flag in self.flags)

    @property
    def equivalent(self) -> bool:
        """Refinement in both directions."""
        return self.functionally_refines and self.performance_refines

    def extra_stall_flags(self) -> List[str]:
        """Flags where the implementation stalls more often than the reference."""
        return [flag.moe for flag in self.flags if not flag.backward_holds]

    def missing_stall_flags(self) -> List[str]:
        """Flags where the implementation can miss a reference-required stall."""
        return [flag.moe for flag in self.flags if not flag.forward_holds]

    def describe(self) -> str:
        """Multi-line report."""
        lines = [f"Refinement of {self.implementation!r} against {self.reference!r}:"]
        lines.append(
            f"  functionally safe : {'yes' if self.functionally_refines else 'NO'}"
            + (f" (missing stalls at {', '.join(self.missing_stall_flags())})"
               if not self.functionally_refines else "")
        )
        lines.append(
            f"  performance equal : {'yes' if self.performance_refines else 'NO'}"
            + (f" (extra stalls at {', '.join(self.extra_stall_flags())})"
               if not self.performance_refines else "")
        )
        return "\n".join(lines)


def _shared_flags(spec_a: FunctionalSpec, spec_b: FunctionalSpec) -> List[str]:
    flags_a = spec_a.moe_flags()
    flags_b = set(spec_b.moe_flags())
    missing = [flag for flag in flags_a if flag not in flags_b] + [
        flag for flag in spec_b.moe_flags() if flag not in set(flags_a)
    ]
    if missing:
        raise SpecificationError(
            f"specifications govern different stages; unmatched moe flags: {sorted(set(missing))}"
        )
    return flags_a


def _shared_context(spec_a: FunctionalSpec, spec_b: FunctionalSpec) -> SymbolicContext:
    """A context over both specs' signals, in :func:`derivation_order` style."""
    moes = dict.fromkeys([*spec_a.moe_flags(), *spec_b.moe_flags()])
    inputs = dict.fromkeys([*spec_a.input_signals(), *spec_b.input_signals()])
    return SymbolicContext([*moes, *register_interleaved_order(list(inputs))])


def _compare(
    context: SymbolicContext,
    moe: str,
    function_a: Union[Expr, SymbolicFunction],
    function_b: Union[Expr, SymbolicFunction],
) -> FlagComparison:
    """Compare two functions of one flag in ``context``, both directions."""
    a = context.lift(function_a)
    b = context.lift(function_b)
    forward_holds = a.implies(b).is_true()
    backward_holds = b.implies(a).is_true()
    return FlagComparison(
        moe=moe,
        equivalent=forward_holds and backward_holds,
        forward_holds=forward_holds,
        backward_holds=backward_holds,
        counterexample=(
            None if forward_holds and backward_holds else a.find_difference(b)
        ),
    )


def check_clause_equivalence(
    spec_a: FunctionalSpec, spec_b: FunctionalSpec
) -> EquivalenceReport:
    """Compare the per-stage stall conditions of two specifications."""
    context = _shared_context(spec_a, spec_b)
    report = EquivalenceReport(name_a=spec_a.name, name_b=spec_b.name, level="clause-level")
    for moe in _shared_flags(spec_a, spec_b):
        report.flags.append(
            _compare(context, moe, spec_a.condition_for(moe), spec_b.condition_for(moe))
        )
    return report


def check_derived_equivalence(
    spec_a: FunctionalSpec, spec_b: FunctionalSpec
) -> EquivalenceReport:
    """Compare the maximum-performance interlocks two specifications induce.

    Both specifications are derived into one shared
    :class:`~repro.symbolic.SymbolicContext`, so per flag the two closed
    forms are compared as BDD nodes — no expression is materialized,
    substituted or re-compiled.
    """
    flags = _shared_flags(spec_a, spec_b)
    context = _shared_context(spec_a, spec_b)
    derived_a = symbolic_most_liberal(spec_a, context=context).moe_functions
    derived_b = symbolic_most_liberal(spec_b, context=context).moe_functions
    report = EquivalenceReport(name_a=spec_a.name, name_b=spec_b.name, level="derived-interlock")
    for moe in flags:
        report.flags.append(_compare(context, moe, derived_a[moe], derived_b[moe]))
    return report


def check_refinement(
    implementation: FunctionalSpec, reference: FunctionalSpec
) -> RefinementReport:
    """Check whether ``implementation`` refines ``reference``.

    Per stage, ``forward`` is "the reference's stall condition implies the
    implementation's" (functional safety: the implementation never misses a
    stall the reference requires) and ``backward`` is the converse
    (performance: the implementation never adds a stall the reference does
    not justify).
    """
    context = _shared_context(implementation, reference)
    report = RefinementReport(implementation=implementation.name, reference=reference.name)
    for moe in _shared_flags(implementation, reference):
        report.flags.append(
            _compare(
                context, moe, reference.condition_for(moe), implementation.condition_for(moe)
            )
        )
    return report


def interlocks_equivalent(
    expressions_a: Dict[str, Expr], expressions_b: Dict[str, Expr]
) -> EquivalenceReport:
    """Compare two closed-form interlock implementations flag by flag.

    Accepts the ``expressions()`` maps of two
    :class:`~repro.pipeline.interlock.ClosedFormInterlock` objects (or any
    mapping from moe flag to expression).
    """
    if set(expressions_a) != set(expressions_b):
        raise SpecificationError(
            "implementations drive different moe flags: "
            f"{sorted(set(expressions_a) ^ set(expressions_b))}"
        )
    context = SymbolicContext(
        register_interleaved_order(
            sorted(variables_of([*expressions_a.values(), *expressions_b.values()]))
        )
    )
    report = EquivalenceReport(name_a="implementation A", name_b="implementation B",
                               level="implementation")
    for moe in expressions_a:
        report.flags.append(_compare(context, moe, expressions_a[moe], expressions_b[moe]))
    return report
