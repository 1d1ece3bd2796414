"""Bounded model checking of sequential interlock behaviour.

The combinational property checker (:mod:`repro.checking.property_check`)
covers steady-state behaviour, but the class of defect the paper reports
finding alongside the unnecessary stalls — "incorrect initialisation values
of control signals" — is inherently sequential: the interlock misbehaves
only for the first few cycles after reset.

This module unrolls an interlock model over the first *k* cycles with a
fresh copy of every control input per cycle and proves (or refutes, with a
cycle-stamped counterexample) the functional and performance claims at
every cycle up to the bound.  For reset-value bugs a small bound — the
pipeline depth plus the length of the forced-reset window — is exhaustive,
which is exactly the situation bounded model checking is good at.

Models
------

* :class:`CombinationalModel` — a closed-form interlock; its outputs do not
  depend on the cycle index (BMC then coincides with the combinational
  check, cycle by cycle).
* :class:`StuckResetModel` — wraps a base model but forces chosen moe flags
  to fixed values for the first ``cycles`` cycles, mirroring
  :class:`repro.pipeline.interlock.StuckResetInterlock`.
* :class:`RegisteredGrantModel` — completion-stage grants are only honoured
  when the request was already pending in the previous cycle, mirroring
  :class:`repro.pipeline.interlock.ConservativeCompletionInterlock`; this
  model has genuine cross-cycle dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..expr.ast import Expr, FALSE, Implies, Not, TRUE, Var
from ..expr.builders import big_and
from ..expr.transform import rename, simplify, substitute
from ..pipeline.structure import Architecture
from ..sat.interface import check_valid
from ..spec.functional import FunctionalSpec

__all__ = [
    "timed_name",
    "CombinationalModel",
    "StuckResetModel",
    "RegisteredGrantModel",
    "BmcViolation",
    "BmcResult",
    "BoundedModelChecker",
]


def timed_name(signal: str, cycle: int) -> str:
    """The timed copy of a signal name at a given cycle."""
    return f"{signal}@{cycle}"


def _as_expr(obligation) -> Expr:
    """Coerce an obligation to an expression.

    The unroller works on per-cycle *renamed copies* of each formula, which
    is an expression-level operation; a
    :class:`~repro.symbolic.SymbolicFunction` obligation therefore
    materializes here — once, as its minimized ISOP cover (cached in its
    context) — and every timed copy is a rename of that small cover instead
    of the raw substitution residue the expression pipeline used to carry.
    """
    to_expr = getattr(obligation, "to_expr", None)
    if to_expr is not None:
        return to_expr()
    return obligation


def _timed(expr: Expr, cycle: int) -> Expr:
    """Rename every variable of ``expr`` to its timed copy at ``cycle``."""
    mapping = {name: timed_name(name, cycle) for name in expr.variables()}
    return rename(expr, mapping)


class CombinationalModel:
    """A stateless interlock model: the same moe equations every cycle.

    Accepts plain expressions or
    :class:`~repro.symbolic.SymbolicFunction` closed forms per moe flag;
    symbolic obligations materialize once as minimized covers.
    """

    def __init__(self, expressions: Mapping[str, Expr], name: str = "combinational"):
        self.name = name
        self._expressions = {
            moe: _as_expr(expression) for moe, expression in expressions.items()
        }

    @classmethod
    def from_derivation(cls, derivation, name: Optional[str] = None) -> "CombinationalModel":
        """The model of a fixed-point derivation's closed forms."""
        return cls(
            derivation.moe_functions, name=name or f"derived({derivation.spec.name})"
        )

    def moe_flags(self) -> List[str]:
        """The moe flags the model drives."""
        return list(self._expressions)

    def outputs_at(self, cycle: int) -> Dict[str, Expr]:
        """Timed moe equations for one cycle (over that cycle's inputs)."""
        return {moe: _timed(expr, cycle) for moe, expr in self._expressions.items()}


class StuckResetModel:
    """A model whose chosen flags are forced to constants right after reset."""

    def __init__(
        self,
        base: CombinationalModel,
        forced_values: Mapping[str, bool],
        cycles: int,
        name: Optional[str] = None,
    ):
        self.base = base
        self.forced_values = dict(forced_values)
        self.cycles = cycles
        self.name = name or f"stuck-reset({base.name})"

    def moe_flags(self) -> List[str]:
        """The moe flags the model drives."""
        return self.base.moe_flags()

    def outputs_at(self, cycle: int) -> Dict[str, Expr]:
        """Timed moe equations; forced flags are constant before ``cycles``."""
        outputs = self.base.outputs_at(cycle)
        if cycle < self.cycles:
            for moe, value in self.forced_values.items():
                outputs[moe] = TRUE if value else FALSE
        return outputs


class RegisteredGrantModel:
    """Completion grants are only honoured for requests pending a cycle earlier.

    For every completion stage the base equation's grant signal ``p.gnt`` is
    strengthened to ``p.gnt ∧ p.req@previous-cycle``; in cycle 0 no request
    can have been registered, so the stage behaves as if never granted.
    """

    def __init__(
        self,
        base: CombinationalModel,
        architecture: Architecture,
        name: Optional[str] = None,
    ):
        self.base = base
        self.architecture = architecture
        self.name = name or f"registered-grant({base.name})"

    def moe_flags(self) -> List[str]:
        """The moe flags the model drives."""
        return self.base.moe_flags()

    def outputs_at(self, cycle: int) -> Dict[str, Expr]:
        """Timed moe equations with the registered-request grant qualification."""
        outputs = self.base.outputs_at(cycle)
        from ..pipeline import signals as sig

        for pipe in self.architecture.pipes:
            if pipe.completion_bus is None:
                continue
            grant = timed_name(sig.gnt_name(pipe.name), cycle)
            if cycle == 0:
                effective: Expr = FALSE
            else:
                effective = Var(grant) & Var(timed_name(sig.req_name(pipe.name), cycle - 1))
            for moe, expression in outputs.items():
                if grant in expression.variables():
                    outputs[moe] = substitute(expression, {grant: effective})
        return outputs


@dataclass
class BmcViolation:
    """One refuted claim: which stage, which cycle, which kind, and a witness."""

    cycle: int
    moe: str
    kind: str
    counterexample: Dict[str, bool] = field(default_factory=dict)

    def witness_at(self, cycle: int) -> Dict[str, bool]:
        """The slice of the counterexample belonging to one cycle."""
        suffix = f"@{cycle}"
        return {
            name[: -len(suffix)]: value
            for name, value in self.counterexample.items()
            if name.endswith(suffix)
        }

    def describe(self) -> str:
        """Single-line rendering."""
        return f"cycle {self.cycle}: {self.kind} claim for {self.moe} refuted"


@dataclass
class BmcResult:
    """Outcome of a bounded check."""

    model: str
    spec_name: str
    bound: int
    kind: str
    violations: List[BmcViolation] = field(default_factory=list)
    claims_checked: int = 0

    @property
    def holds(self) -> bool:
        """True when no claim up to the bound was refuted."""
        return not self.violations

    def first_violation(self) -> Optional[BmcViolation]:
        """The earliest violation, or None."""
        if not self.violations:
            return None
        return min(self.violations, key=lambda violation: violation.cycle)

    def describe(self) -> str:
        """Multi-line report."""
        lines = [
            f"Bounded {self.kind} check of {self.model} against {self.spec_name} "
            f"(bound {self.bound}, {self.claims_checked} claims):"
        ]
        if self.holds:
            lines.append("  no violation up to the bound")
        else:
            for violation in self.violations:
                lines.append(f"  {violation.describe()}")
        return "\n".join(lines)


class BoundedModelChecker:
    """Unrolls an interlock model and checks the per-cycle claims with SAT.

    Every cycle's claim ranges over fresh timed variables, so a BDD
    context could not reuse compiled nodes from one cycle to the next;
    each claim is one small SAT query over the cycles it mentions, and a
    refutation comes with the solver's model as a cycle-stamped witness.
    The BDD property checker
    (:class:`~repro.checking.property_check.PropertyChecker`) is the
    independent engine the per-cycle verdicts are cross-checked against.
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        environment: Optional[Expr] = None,
        stop_at_first: bool = True,
    ):
        self.spec = spec
        self.environment = _as_expr(environment) if environment is not None else None
        self.stop_at_first = stop_at_first

    # -- claim construction -----------------------------------------------------------

    def _claims_at(self, model, cycle: int, kind: str) -> Dict[str, Expr]:
        """The per-stage claims at one cycle, over timed variables."""
        outputs = model.outputs_at(cycle)
        claims: Dict[str, Expr] = {}
        for clause in self.spec.clauses:
            condition = _timed(clause.condition, cycle)
            # Within the condition, other stages' moe flags refer to the
            # implementation's outputs in the same cycle.
            timed_moe = {
                timed_name(moe, cycle): expression for moe, expression in outputs.items()
            }
            condition = substitute(condition, timed_moe)
            output = outputs[clause.moe]
            if kind == "functional":
                claims[clause.moe] = Implies(condition, Not(output))
            elif kind == "performance":
                claims[clause.moe] = Implies(Not(output), condition)
            else:
                raise ValueError(f"unknown claim kind {kind!r}")
        return claims

    def _assumptions_for(self, claim: Expr, cycle: int) -> Expr:
        """Environment assumptions for every cycle the claim actually mentions.

        Replicating the assumptions for all cycles up to the bound would make
        the SAT queries grow quadratically with the bound for no benefit:
        only the cycles whose timed variables occur in the claim can matter.
        """
        if self.environment is None:
            return TRUE
        referenced = {cycle}
        for name in claim.variables():
            _, _, suffix = name.rpartition("@")
            if suffix.isdigit():
                referenced.add(int(suffix))
        return big_and(_timed(self.environment, k) for k in sorted(referenced))

    def _decide(self, assumptions: Expr, claim: Expr) -> Tuple[bool, Optional[Dict[str, bool]]]:
        """Decide validity of ``assumptions → claim``; a witness refutes it."""
        decision = check_valid(simplify(Implies(assumptions, claim)))
        if decision.answer:
            return True, None
        return False, decision.model or {}

    # -- checking ----------------------------------------------------------------------------

    def check(self, model, bound: int, kind: str) -> BmcResult:
        """Check every per-stage claim of one kind at every cycle up to ``bound``."""
        result = BmcResult(
            model=getattr(model, "name", type(model).__name__),
            spec_name=self.spec.name,
            bound=bound,
            kind=kind,
        )
        for cycle in range(bound):
            for moe, claim in self._claims_at(model, cycle, kind).items():
                result.claims_checked += 1
                assumptions = self._assumptions_for(claim, cycle)
                holds, counterexample = self._decide(assumptions, claim)
                if holds:
                    continue
                result.violations.append(
                    BmcViolation(
                        cycle=cycle,
                        moe=moe,
                        kind=kind,
                        counterexample=counterexample or {},
                    )
                )
                if self.stop_at_first:
                    return result
        return result

    def check_functional(self, model, bound: int) -> BmcResult:
        """Bounded check of the functional claims (no missing stalls)."""
        return self.check(model, bound, "functional")

    def check_performance(self, model, bound: int) -> BmcResult:
        """Bounded check of the performance claims (no unnecessary stalls)."""
        return self.check(model, bound, "performance")
