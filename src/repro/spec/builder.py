"""Automatic construction of a functional specification from an architecture.

Section 2.2.1 of the paper writes the stall conditions of the example
architecture by hand, following a small number of structural rules:

* a **completion stage** stalls when it requests the completion bus but is
  not granted it (``p.req ∧ ¬p.gnt``);
* an **intermediate stage** stalls when its content requires to move but the
  next stage is neither moving nor empty (``p.s.rtm ∧ ¬p.(s+1).moe``);
* an **issue stage** additionally stalls on an instruction-enforced WAIT,
  when a lock-step partner stalls, and when a source or destination
  register is outstanding on the scoreboard and not bypassed by a
  completion bus this cycle.

:class:`SpecBuilder` applies those rules to any
:class:`~repro.pipeline.structure.Architecture`, producing the same
Figure 2 specification for the paper's example and scaling to the larger
FirePath-like architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..expr.ast import Expr, FALSE, Not, Var
from ..expr.builders import big_and, big_or
from ..pipeline import signals as sig
from ..pipeline.structure import Architecture, PipeSpec, StageRef
from .functional import FunctionalSpec, StallClause


@dataclass
class BuilderOptions:
    """Knobs for specification construction.

    Attributes:
        include_scoreboard: generate register-outstanding stall terms at
            issue stages (requires the architecture to have a scoreboard).
        include_bypass: model completion-bus bypassing inside the
            scoreboard term (the paper's ``c.regaddr ≠ a`` conjunct); with
            bypassing disabled the scoreboard term stalls on any
            outstanding register, which is the conservative variant used by
            the completion-redesign experiment.
        include_lockstep: generate the lock-step coupling implications.
        include_extra_stalls: generate WAIT / interrupt stall terms.
    """

    include_scoreboard: bool = True
    include_bypass: bool = True
    include_lockstep: bool = True
    include_extra_stalls: bool = True


class SpecBuilder:
    """Builds :class:`~repro.spec.functional.FunctionalSpec` objects from architectures."""

    def __init__(self, architecture: Architecture, options: Optional[BuilderOptions] = None):
        self.architecture = architecture
        self.options = options or BuilderOptions()

    # -- public API -----------------------------------------------------------------

    def build(self) -> FunctionalSpec:
        """Construct the functional specification for the architecture."""
        arch = self.architecture
        clauses: List[StallClause] = []
        for pipe in arch.pipes:
            for stage in reversed(pipe.stages()):
                condition = self._stall_condition(pipe, stage)
                clauses.append(
                    StallClause(
                        moe=stage.moe,
                        condition=condition,
                        label=self._stage_label(pipe, stage),
                    )
                )
        return FunctionalSpec(
            name=arch.name,
            clauses=clauses,
            inputs=arch.input_signals(),
            metadata={"architecture": arch, "builder_options": self.options},
        )

    def stall_condition_for(self, pipe_name: str, stage_index: int) -> Expr:
        """The stall condition of a single stage (useful in tests and docs)."""
        pipe = self.architecture.pipe(pipe_name)
        return self._stall_condition(pipe, pipe.stage(stage_index))

    # -- per-stage rules ---------------------------------------------------------------

    def _stall_condition(self, pipe: PipeSpec, stage: StageRef) -> Expr:
        terms: List[Expr] = []
        is_completion = stage.index == pipe.num_stages and pipe.completion_bus is not None
        is_issue = stage.index == 1

        if is_completion:
            terms.append(self._completion_term(pipe))
        if stage.index < pipe.num_stages:
            terms.append(self._blocked_successor_term(pipe, stage))
        if is_issue:
            terms.extend(self._issue_terms(pipe))

        if not terms:
            # A final stage with no completion bus never needs to stall.
            return FALSE
        return big_or(terms)

    def _completion_term(self, pipe: PipeSpec) -> Expr:
        """``p.req ∧ ¬p.gnt`` — lost the arbitration for the completion bus."""
        return Var(sig.req_name(pipe.name)) & ~Var(sig.gnt_name(pipe.name))

    def _blocked_successor_term(self, pipe: PipeSpec, stage: StageRef) -> Expr:
        """``p.s.rtm ∧ ¬p.(s+1).moe`` — wants to move but the next stage blocks."""
        next_stage = pipe.stage(stage.index + 1)
        return Var(stage.rtm) & ~Var(next_stage.moe)

    def _issue_terms(self, pipe: PipeSpec) -> List[Expr]:
        terms: List[Expr] = []
        if self.options.include_extra_stalls:
            for signal in self.architecture.wait_signals_for(pipe.name):
                terms.append(Var(signal))
        if self.options.include_lockstep:
            for partner in self.architecture.lockstep_partners(pipe.name):
                partner_issue = self.architecture.pipe(partner).issue_stage
                terms.append(~Var(partner_issue.moe))
        if self.options.include_scoreboard and self.architecture.scoreboard is not None:
            terms.append(self._scoreboard_term(pipe))
        return terms

    def _scoreboard_term(self, pipe: PipeSpec) -> Expr:
        """The register-outstanding hazard at a pipe's issue stage.

        Expands the paper's quantified formula

            ∃ r : SDREG . ∃ a : REGADDRESS .
                p.1.r.regaddr = a ∧ scb[a] ∧ c.regaddr ≠ a

        into a finite disjunction over both register selectors and every
        register address, with one ``bus.regaddr ≠ a`` conjunct per bypass
        bus when bypassing is enabled.
        """
        scoreboard = self.architecture.scoreboard
        bypass_buses = (
            list(scoreboard.bypass_buses) if self.options.include_bypass else []
        )
        disjuncts: List[Expr] = []
        for which in ("src", "dst"):
            for address in range(scoreboard.num_registers):
                conjuncts: List[Expr] = [
                    Var(sig.stage_regaddr_indicator(pipe.name, 1, which, address)),
                    Var(sig.scoreboard_name(address, scoreboard.prefix)),
                ]
                for bus_name in bypass_buses:
                    conjuncts.append(Not(Var(sig.bus_target_indicator(bus_name, address))))
                disjuncts.append(big_and(conjuncts))
        return big_or(disjuncts)

    def _stage_label(self, pipe: PipeSpec, stage: StageRef) -> str:
        if stage.index == 1:
            return f"{pipe.name} issue"
        if stage.index == pipe.num_stages and pipe.completion_bus is not None:
            return f"{pipe.name} completion"
        if stage.index in pipe.shunt_stages:
            return f"{pipe.name} shunt {stage.index}"
        return f"{pipe.name} execute {stage.index}"


def build_functional_spec(
    architecture: Architecture, options: Optional[BuilderOptions] = None
) -> FunctionalSpec:
    """One-call convenience wrapper around :class:`SpecBuilder`."""
    return SpecBuilder(architecture, options).build()


def conservative_variant(architecture: Architecture) -> FunctionalSpec:
    """A deliberately pessimistic specification without completion-bus bypassing.

    This mirrors the pre-redesign FirePath completion behaviour the paper
    reports improving: the issue stages stall on any outstanding register
    even when the register is being written back in the same cycle.  Used
    as the baseline in the completion-redesign benchmark.
    """
    options = BuilderOptions(include_bypass=False)
    spec = SpecBuilder(architecture, options).build()
    return FunctionalSpec(
        name=f"{architecture.name}-conservative",
        clauses=spec.clauses,
        inputs=spec.inputs,
        metadata=spec.metadata,
    )
