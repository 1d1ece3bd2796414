"""Performance and combined specifications derived from a functional spec.

These are thin, immutable views over a :class:`~repro.spec.functional.FunctionalSpec`;
the real work (proving that flipping the implications is the unique optimum)
happens in :mod:`repro.spec.derivation` and :mod:`repro.spec.properties`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..expr.ast import Expr, Iff, Implies, Not, Var
from ..expr.builders import big_and
from ..expr.printer import to_text, to_unicode
from .functional import FunctionalSpec


@dataclass(frozen=True)
class PerformanceClause:
    """One per-stage performance implication ``¬moe → condition``.

    A violation of this clause is an *unnecessary pipeline stall* — the
    stage reported that it is not moving although no functional constraint
    required it to stall (the paper's definition of a performance bug).
    """

    moe: str
    condition: Expr
    label: str = ""

    def formula(self) -> Expr:
        """The implication ``¬moe → condition``."""
        return Implies(Not(Var(self.moe)), self.condition)

    def describe(self) -> str:
        """Single-line rendering used in listings and assertion comments."""
        prefix = f"{self.label}: " if self.label else ""
        return f"{prefix}!{self.moe} -> {to_text(self.condition)}"


@dataclass(frozen=True)
class CombinedClause:
    """One per-stage combined equivalence ``condition ↔ ¬moe``.

    The combined clause is what a maximum-performance implementation must
    realise: the stage stalls if and only if some functional constraint
    requires it.
    """

    moe: str
    condition: Expr
    label: str = ""

    def formula(self) -> Expr:
        """The equivalence ``condition ↔ ¬moe``."""
        return Iff(self.condition, Not(Var(self.moe)))


class PerformanceSpec:
    """The maximum performance specification (Figure 3 of the paper)."""

    def __init__(self, functional: FunctionalSpec):
        self._functional = functional
        self._clauses = [
            PerformanceClause(moe=c.moe, condition=c.condition, label=c.label)
            for c in functional.clauses
        ]

    @property
    def name(self) -> str:
        """Name inherited from the functional specification."""
        return self._functional.name

    @property
    def functional(self) -> FunctionalSpec:
        """The functional specification this was derived from."""
        return self._functional

    @property
    def clauses(self) -> List[PerformanceClause]:
        """Per-stage performance clauses, in functional clause order."""
        return list(self._clauses)

    def clause_for(self, moe: str) -> PerformanceClause:
        """The performance clause governing a given moe flag."""
        for clause in self._clauses:
            if clause.moe == moe:
                return clause
        raise KeyError(f"no performance clause for moe flag {moe!r}")

    def formula(self) -> Expr:
        """``SPEC_perf``: the conjunction of all performance implications."""
        return big_and(clause.formula() for clause in self._clauses)

    def describe(self, unicode_symbols: bool = False) -> str:
        """Figure-3 style listing of the specification."""
        render = to_unicode if unicode_symbols else to_text
        arrow = "→" if unicode_symbols else "->"
        neg = "¬" if unicode_symbols else "!"
        lines = [f"SPEC_perf for {self.name}:"]
        for clause in self._clauses:
            lines.append(f"  {neg}{clause.moe} {arrow} {render(clause.condition)}")
        return "\n".join(lines)


class CombinedSpec:
    """The combined functional + performance specification.

    Section 2.2.3: "the combined specification would contain formulas of the
    form condition ↔ ¬moe"; Section 3 proves this is the unique maximum
    performance implementation of the functional specification.
    """

    def __init__(self, functional: FunctionalSpec):
        self._functional = functional
        self._clauses = [
            CombinedClause(moe=c.moe, condition=c.condition, label=c.label)
            for c in functional.clauses
        ]

    @property
    def name(self) -> str:
        """Name inherited from the functional specification."""
        return self._functional.name

    @property
    def functional(self) -> FunctionalSpec:
        """The functional specification this was derived from."""
        return self._functional

    @property
    def performance(self) -> PerformanceSpec:
        """The performance half of the combined specification."""
        return PerformanceSpec(self._functional)

    @property
    def clauses(self) -> List[CombinedClause]:
        """Per-stage combined clauses, in functional clause order."""
        return list(self._clauses)

    def formula(self) -> Expr:
        """The conjunction of all per-stage equivalences."""
        return big_and(clause.formula() for clause in self._clauses)

    def describe(self, unicode_symbols: bool = False) -> str:
        """Listing of the combined specification."""
        render = to_unicode if unicode_symbols else to_text
        arrow = "↔" if unicode_symbols else "<->"
        neg = "¬" if unicode_symbols else "!"
        lines = [f"SPEC_combined for {self.name}:"]
        for clause in self._clauses:
            lines.append(f"  {render(clause.condition)} {arrow} {neg}{clause.moe}")
        return "\n".join(lines)
