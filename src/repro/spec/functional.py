"""Functional specifications of interlocked pipeline control logic.

A functional specification, in the sense of Section 2.2.1 of the paper, is
a conjunction of per-stage implications::

    F_i(¬moe, inputs)  →  ¬moe_i

Each :class:`StallClause` holds one such implication: the stage it governs
(identified by its moe signal name) and the stall condition ``F_i``.  The
stall condition may refer to the moe flags of *other* stages only through
their negation (``¬moe_j``) and to arbitrary primary inputs — exactly the
shape Section 3.1 requires for the maximum-performance derivation to work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..expr.ast import Expr, Implies, Not, Var
from ..expr.builders import big_and
from ..expr.printer import to_text, to_unicode
from ..expr.transform import polarity_of_variables


class SpecificationError(ValueError):
    """Raised when a specification is malformed or violates the paper's shape."""


@dataclass(frozen=True)
class StallClause:
    """One per-stage stall implication ``condition → ¬moe``.

    Attributes:
        moe: the name of the governed stage's moving-or-empty flag.
        condition: the stall condition ``F_i``; an expression over negated
            moe flags of other stages and primary inputs.
        label: optional human-readable stage label used in reports.
    """

    moe: str
    condition: Expr
    label: str = ""

    def functional_formula(self) -> Expr:
        """The functional implication ``condition → ¬moe`` (Figure 2 shape)."""
        return Implies(self.condition, Not(Var(self.moe)))

    def moe_variables_in_condition(self, all_moe: Sequence[str]) -> List[str]:
        """The moe flags (other stages') that the condition refers to."""
        used = self.condition.variables()
        return [name for name in all_moe if name in used]

    def describe(self) -> str:
        """Single-line rendering used in spec listings."""
        prefix = f"{self.label}: " if self.label else ""
        return f"{prefix}{to_text(self.condition)} -> !{self.moe}"


@dataclass
class FunctionalSpec:
    """A complete functional specification of the interlock logic.

    This is the object the paper's method starts from.  It groups one
    :class:`StallClause` per pipeline stage (exactly one clause per moe
    flag, as in Figure 2), and records which signals are primary inputs of
    the control logic.

    Attributes:
        name: specification name (usually the architecture name).
        clauses: the per-stage stall clauses.
        inputs: names of primary input signals the conditions may use
            (rtm flags, bus requests/grants, scoreboard bits, WAIT, ...).
        metadata: free-form annotations (e.g. the architecture object).
    """

    name: str
    clauses: List[StallClause]
    inputs: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        moes = [clause.moe for clause in self.clauses]
        duplicates = {m for m in moes if moes.count(m) > 1}
        if duplicates:
            raise SpecificationError(
                f"multiple stall clauses for moe flags {sorted(duplicates)}; combine "
                "their conditions into one disjunction per stage"
            )
        input_set = set(self.inputs)
        moe_set = set(moes)
        overlap = input_set & moe_set
        if overlap:
            raise SpecificationError(
                f"signals {sorted(overlap)} are declared both as inputs and as moe flags"
            )
        for clause in self.clauses:
            unknown = clause.condition.variables() - input_set - moe_set
            if unknown:
                raise SpecificationError(
                    f"stall condition for {clause.moe} uses undeclared signals "
                    f"{sorted(unknown)}"
                )

    # -- basic accessors ---------------------------------------------------------

    def moe_flags(self) -> List[str]:
        """The moe flag names in clause order (deepest stages first by convention)."""
        return [clause.moe for clause in self.clauses]

    def clause_for(self, moe: str) -> StallClause:
        """The stall clause governing a given moe flag."""
        for clause in self.clauses:
            if clause.moe == moe:
                return clause
        raise KeyError(f"no stall clause for moe flag {moe!r}")

    def condition_for(self, moe: str) -> Expr:
        """The stall condition ``F_i`` of a given stage."""
        return self.clause_for(moe).condition

    def input_signals(self) -> List[str]:
        """The primary inputs (declared order)."""
        return list(self.inputs)

    # -- formulas ------------------------------------------------------------------

    def functional_formula(self) -> Expr:
        """``SPEC_func``: the conjunction of all functional implications (Fig. 2)."""
        return big_and(clause.functional_formula() for clause in self.clauses)

    # -- structural checks -----------------------------------------------------------

    def moe_dependencies(self) -> Dict[str, List[str]]:
        """For each stage, the moe flags its stall condition depends on.

        This is the backwards control-flow graph of the paper: an edge from
        stage *i* to stage *j* means stage *i* stalls when stage *j* stalls.
        """
        moes = self.moe_flags()
        return {
            clause.moe: clause.moe_variables_in_condition(moes) for clause in self.clauses
        }

    def is_feed_forward(self) -> bool:
        """True when the moe dependency graph is acyclic.

        The paper notes (end of Section 3.2) that the simple fixed point
        derivation always terminates, but the closed-form result is only
        guaranteed to be literal when control flows in one direction; the
        lock-step equivalence of issue stages already introduces a cycle and
        is handled by iterating to convergence.
        """
        graph = self.moe_dependencies()
        visited: Dict[str, int] = {}

        def has_cycle(node: str) -> bool:
            state = visited.get(node, 0)
            if state == 1:
                return True
            if state == 2:
                return False
            visited[node] = 1
            for successor in graph.get(node, []):
                if has_cycle(successor):
                    return True
            visited[node] = 2
            return False

        return not any(has_cycle(moe) for moe in graph)

    def monotonicity_report(self) -> Dict[str, Dict[str, Tuple[bool, bool]]]:
        """Per-clause polarity of every moe flag used in its condition.

        Section 3.1 requires each ``F_i`` to be monotone in the *negated*
        moe flags, i.e. the moe flags themselves must appear only under an
        odd number of negations (only negatively).  The report maps each
        clause's moe flag to ``{used_moe: (positive, negative)}``.
        """
        moes = set(self.moe_flags())
        report: Dict[str, Dict[str, Tuple[bool, bool]]] = {}
        for clause in self.clauses:
            polarities = polarity_of_variables(clause.condition)
            report[clause.moe] = {
                name: pol for name, pol in polarities.items() if name in moes
            }
        return report

    def violating_clauses(self) -> List[str]:
        """Moe flags whose conditions use some other moe flag positively."""
        out = []
        for moe, per_clause in self.monotonicity_report().items():
            if any(positive for positive, _ in per_clause.values()):
                out.append(moe)
        return out

    # -- rendering ---------------------------------------------------------------------

    def describe(self, unicode_symbols: bool = False) -> str:
        """Figure-2 style listing of the specification."""
        render = to_unicode if unicode_symbols else to_text
        lines = [f"SPEC_func for {self.name}:"]
        for clause in self.clauses:
            arrow = "→" if unicode_symbols else "->"
            neg = "¬" if unicode_symbols else "!"
            lines.append(f"  {render(clause.condition)} {arrow} {neg}{clause.moe}")
        return "\n".join(lines)
