"""Generation of testbench assertions from specifications.

Section 2.2.3 of the paper: "To include the assertions into a testbench,
what remains to be done is to translate them into the HDL used for RTL
design and simulation."  Here the assertions are first materialised as
backend-neutral :class:`Assertion` objects (an expression that must hold in
every cycle), which the runtime monitor evaluates on simulation traces and
the SVA/PSL emitters translate to HDL text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional

from ..expr.ast import Expr, Not, Var
from ..expr.evaluate import eval_expr
from ..expr.printer import to_text
from ..spec.functional import FunctionalSpec
from ..spec.performance import CombinedSpec, PerformanceSpec


class AssertionKind(Enum):
    """What a violation of the assertion means."""

    FUNCTIONAL = "functional"  # violated => hazard (stage moved although it had to stall)
    PERFORMANCE = "performance"  # violated => unnecessary stall (performance bug)
    COMBINED = "combined"  # violated => either of the above


@dataclass(frozen=True)
class Assertion:
    """A per-cycle invariant over the sampled control signals.

    Attributes:
        name: unique assertion name (used in reports and generated HDL).
        kind: functional, performance or combined.
        moe: the moe flag the assertion is about.
        formula: the boolean expression that must evaluate true every cycle.
        description: human-readable meaning, copied into HDL comments.
    """

    name: str
    kind: AssertionKind
    moe: str
    formula: Expr
    description: str = ""

    def holds(self, signals: Mapping[str, bool]) -> bool:
        """Evaluate the assertion on one cycle's signal sample."""
        return eval_expr(self.formula, signals)

    def describe(self) -> str:
        """Single-line rendering."""
        return f"[{self.kind.value}] {self.name}: {to_text(self.formula)}"


def _sanitise(moe: str) -> str:
    return moe.replace(".", "_").replace("[", "_").replace("]", "").replace("=", "_eq_")


def functional_assertions(spec: FunctionalSpec) -> List[Assertion]:
    """One functional assertion per stage: ``condition → ¬moe``.

    A violation means the interlock let a stage report "moving or empty"
    although a functional constraint required it to stall — a hazard.
    """
    out: List[Assertion] = []
    for clause in spec.clauses:
        out.append(
            Assertion(
                name=f"func_{_sanitise(clause.moe)}",
                kind=AssertionKind.FUNCTIONAL,
                moe=clause.moe,
                formula=clause.functional_formula(),
                description=(
                    f"{clause.label or clause.moe}: stage must stall when its "
                    "functional stall condition holds"
                ),
            )
        )
    return out


def performance_assertions(spec: PerformanceSpec) -> List[Assertion]:
    """One performance assertion per stage: ``¬moe → condition``.

    A violation is an unnecessary pipeline stall — the paper's definition of
    a performance bug.
    """
    out: List[Assertion] = []
    for clause in spec.clauses:
        out.append(
            Assertion(
                name=f"perf_{_sanitise(clause.moe)}",
                kind=AssertionKind.PERFORMANCE,
                moe=clause.moe,
                formula=clause.formula(),
                description=(
                    f"{clause.label or clause.moe}: every stall must be justified by "
                    "a functional stall condition"
                ),
            )
        )
    return out


def combined_assertions(spec: CombinedSpec) -> List[Assertion]:
    """One combined assertion per stage: ``condition ↔ ¬moe``."""
    out: List[Assertion] = []
    for clause in spec.clauses:
        out.append(
            Assertion(
                name=f"comb_{_sanitise(clause.moe)}",
                kind=AssertionKind.COMBINED,
                moe=clause.moe,
                formula=clause.formula(),
                description=(
                    f"{clause.label or clause.moe}: the stage stalls exactly when a "
                    "functional stall condition holds"
                ),
            )
        )
    return out


def testbench_assertions(functional: FunctionalSpec) -> List[Assertion]:
    """The assertion set the paper adds to the FirePath testbench.

    The project described in the paper focused on the performance half; both
    halves are generated here.  A caller that wants one half calls
    :func:`functional_assertions` or :func:`performance_assertions`.
    """
    return functional_assertions(functional) + performance_assertions(
        PerformanceSpec(functional)
    )


# The name starts with "test", so pytest would otherwise collect this helper
# as a test function in every test module that imports it.
testbench_assertions.__test__ = False


def derived_assertions(derivation) -> List[Assertion]:
    """Assertions over the *derived* closed forms, from extracted covers.

    Where :func:`testbench_assertions` arms the raw specification clauses
    (whose conditions mention other stages' moe flags), these arm the
    fixed-point closed forms ``MOE_i`` over primary inputs only — the exact
    per-cycle contract of the unique maximum-performance interlock:

    * performance: ``MOE_i(inputs) → moe_i`` — if the most liberal
      assignment lets the stage move, stalling it is a performance bug;
    * functional: ``¬MOE_i(inputs) → ¬moe_i`` — if the most liberal
      assignment stalls the stage, moving it is a hazard.

    The formulas are materialized from the derivation's BDD nodes as
    minimized ISOP covers (and their cached complement covers for the
    stall side), so the emitted SVA/PSL and the runtime monitors evaluate
    compact two-level forms rather than substitution residue.

    Args:
        derivation: a :class:`~repro.spec.derivation.DerivationResult`.
    """
    out: List[Assertion] = []
    moe_covers = derivation.moe_expressions
    stall_covers = derivation.stall_expressions()
    for moe in moe_covers:
        tag = _sanitise(moe)
        out.append(
            Assertion(
                name=f"perf_closed_{tag}",
                kind=AssertionKind.PERFORMANCE,
                moe=moe,
                formula=moe_covers[moe].implies(Var(moe)),
                description=(
                    f"{moe}: the stage must move whenever the derived most "
                    "liberal assignment lets it move"
                ),
            )
        )
        out.append(
            Assertion(
                name=f"func_closed_{tag}",
                kind=AssertionKind.FUNCTIONAL,
                moe=moe,
                formula=stall_covers[moe].implies(Not(Var(moe))),
                description=(
                    f"{moe}: the stage must stall whenever the derived most "
                    "liberal assignment requires a stall"
                ),
            )
        )
    return out


def assertions_by_kind(assertions: List[Assertion]) -> Dict[AssertionKind, List[Assertion]]:
    """Group assertions by kind (used by reports)."""
    grouped: Dict[AssertionKind, List[Assertion]] = {}
    for assertion in assertions:
        grouped.setdefault(assertion.kind, []).append(assertion)
    return grouped
