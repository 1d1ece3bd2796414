"""Environment assumptions for property checking.

The interlock's primary inputs are not free: the surrounding hardware
guarantees, for example, that a completion-bus grant is only given to a
requesting pipe and that the one-hot register-address indicators are indeed
one-hot.  Property checking without these assumptions reports spurious
counterexamples in unreachable input combinations, so the checker conjoins
them as antecedents (``assumptions → property``).

All assumptions are derived from the architecture description alone; they
correspond to the behaviour of the simulator's arbiter, scoreboard and
instruction decoder.
"""

from __future__ import annotations

from typing import List

from ..expr.ast import Expr, Var
from ..expr.builders import at_most_one, big_and
from ..pipeline import signals as sig
from ..pipeline.arbitration import (
    arbitration_environment_assumptions,
    work_conserving_assumption,
)
from ..pipeline.structure import Architecture


def grant_assumptions(architecture: Architecture) -> List[Expr]:
    """Arbitration sanity: grants answer requests, one per bus, and a requested bus is granted."""
    assumptions: List[Expr] = []
    for bus in architecture.buses:
        assumptions.extend(arbitration_environment_assumptions(bus))
        assumptions.append(work_conserving_assumption(bus))
    return assumptions


def bus_target_assumptions(architecture: Architecture) -> List[Expr]:
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
        any_grant = None
        for pipe in bus.priority:
            grant = Var(sig.gnt_name(pipe))
            any_grant = grant if any_grant is None else (any_grant | grant)
        if any_grant is not None:
            for indicator in indicators:
                assumptions.append(indicator.implies(any_grant))
    return assumptions


def issue_register_assumptions(architecture: Architecture) -> List[Expr]:
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


def request_assumptions(architecture: Architecture) -> List[Expr]:
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
        grant_assumptions(architecture)
        + bus_target_assumptions(architecture)
        + issue_register_assumptions(architecture)
        + request_assumptions(architecture)
    )


def environment_formula(architecture: Architecture) -> Expr:
    """The conjunction of every environment assumption."""
    return big_and(environment_assumptions(architecture))
