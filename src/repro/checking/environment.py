"""Environment assumptions for property checking: their only definition.

The interlock's primary inputs are not free: the surrounding hardware
guarantees, for example, that a completion-bus grant is only given to a
requesting pipe and that the one-hot register-address indicators are indeed
one-hot.  Property checking without these assumptions reports spurious
counterexamples in unreachable input combinations, so the checker conjoins
them as antecedents (``assumptions → property``).

All assumptions are derived from the architecture description alone; they
correspond to the behaviour of the simulator's arbiter, scoreboard and
instruction decoder.  This module is their only definition: the BDD
checker lifts :func:`environment_assumptions` one by one into its
partition (which checks that each holds with all of its signals low), and
the SAT backend reads :func:`environment_formula`.  Each one-hot group is
one :func:`~repro.expr.builders.at_most_one`, linear in its indicators.
"""

from __future__ import annotations

from typing import List

from ..expr.ast import Expr, Var
from ..expr.builders import at_most_one, big_and, big_or
from ..pipeline import signals as sig
from ..pipeline.structure import Architecture


def _grant_assumptions(architecture: Architecture) -> List[Expr]:
    """Constraints every sane arbiter obeys, per bus.

    * a grant is only given to a requesting pipe,
    * at most one pipe is granted per bus per cycle, and
    * if some pipe requests the bus, some pipe is granted it.

    Fixed-priority and round-robin arbiters are both work conserving; the
    last assumption tightens the environment and is what makes the
    completion stages' maximum-performance condition achievable.
    """
    assumptions: List[Expr] = []
    for bus in architecture.buses:
        grants = [Var(sig.gnt_name(pipe)) for pipe in bus.priority]
        requests = [Var(sig.req_name(pipe)) for pipe in bus.priority]
        assumptions.extend(grant.implies(request) for grant, request in zip(grants, requests))
        if len(grants) > 1:
            assumptions.append(at_most_one(grants))
        assumptions.append(big_or(requests).implies(big_or(grants)))
    return assumptions


def _bus_target_assumptions(architecture: Architecture) -> List[Expr]:
    """Completion-target indicators are one-hot and only valid with a grant."""
    assumptions: List[Expr] = []
    if architecture.scoreboard is None:
        return assumptions
    num_registers = architecture.scoreboard.num_registers
    for bus in architecture.buses:
        indicators = [
            Var(sig.bus_target_indicator(bus.name, address))
            for address in range(num_registers)
        ]
        assumptions.append(at_most_one(indicators))
        any_grant = big_or(Var(sig.gnt_name(pipe)) for pipe in bus.priority)
        assumptions.extend(indicator.implies(any_grant) for indicator in indicators)
    return assumptions


def _issue_register_assumptions(architecture: Architecture) -> List[Expr]:
    """Issue-stage register-address indicators are one-hot per selector."""
    assumptions: List[Expr] = []
    if architecture.scoreboard is None:
        return assumptions
    num_registers = architecture.scoreboard.num_registers
    for pipe in architecture.pipes:
        for which in ("src", "dst"):
            indicators = [
                Var(sig.stage_regaddr_indicator(pipe.name, 1, which, address))
                for address in range(num_registers)
            ]
            assumptions.append(at_most_one(indicators))
    return assumptions


def _request_assumptions(architecture: Architecture) -> List[Expr]:
    """A completion request implies the completion stage has content to move.

    The simulator only raises ``p.req`` when the completion stage holds a
    writeback instruction, in which case that stage's rtm flag is also set.
    """
    assumptions: List[Expr] = []
    for pipe in architecture.pipes:
        if pipe.completion_bus is None:
            continue
        request = Var(sig.req_name(pipe.name))
        completion_rtm = Var(pipe.completion_stage.rtm)
        assumptions.append(request.implies(completion_rtm))
    return assumptions


def environment_assumptions(architecture: Architecture) -> List[Expr]:
    """All environment assumptions for an architecture."""
    return (
        _grant_assumptions(architecture)
        + _bus_target_assumptions(architecture)
        + _issue_register_assumptions(architecture)
        + _request_assumptions(architecture)
    )


def environment_formula(architecture: Architecture) -> Expr:
    """The conjunction of every environment assumption."""
    return big_and(environment_assumptions(architecture))
