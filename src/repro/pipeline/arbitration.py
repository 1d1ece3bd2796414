"""Completion-bus arbitration schemes.

The paper's example gives the short pipe fixed priority over the long pipe
and notes that "the completion logic, eg the arbitration scheme of the bus,
can also be included in the functional specification".  Two arbiters are
provided; the interlock specification is agnostic to the choice, which the
test-suite verifies by running both under the same derived interlock.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, List, Mapping, Optional, Sequence

from ..expr.ast import Expr, Var
from . import signals as sig
from .structure import CompletionBusSpec


class Arbiter(ABC):
    """Grants a completion bus to at most one requesting pipe per cycle."""

    def __init__(self, bus: CompletionBusSpec):
        self.bus = bus

    @abstractmethod
    def grant(self, requests: Mapping[str, bool]) -> Optional[str]:
        """Return the name of the granted pipe, or None if nobody requested."""

    def reset(self) -> None:
        """Reset any internal arbitration state (round-robin pointers etc.)."""

    def state(self) -> Hashable:
        """The internal arbitration state (None for a stateless arbiter).

        Two grants from equal states with equal requests are equal, so the
        simulator compares it across a cycle to tell whether the next cycle
        can differ.
        """
        return None


class FixedPriorityArbiter(Arbiter):
    """Grants the highest-priority requesting pipe (the paper's scheme)."""

    def grant(self, requests: Mapping[str, bool]) -> Optional[str]:
        for pipe in self.bus.priority:
            if requests.get(pipe, False):
                return pipe
        return None


class RoundRobinArbiter(Arbiter):
    """Rotates priority among the pipes so no requester starves."""

    def __init__(self, bus: CompletionBusSpec):
        super().__init__(bus)
        self._next_index = 0

    def reset(self) -> None:
        self._next_index = 0

    def state(self) -> Hashable:
        return self._next_index

    def grant(self, requests: Mapping[str, bool]) -> Optional[str]:
        order = list(self.bus.priority)
        count = len(order)
        for offset in range(count):
            pipe = order[(self._next_index + offset) % count]
            if requests.get(pipe, False):
                self._next_index = (self._next_index + offset + 1) % count
                return pipe
        return None


ARBITER_FACTORIES = {
    "fixed-priority": FixedPriorityArbiter,
    "round-robin": RoundRobinArbiter,
}


def make_arbiter(kind: str, bus: CompletionBusSpec) -> Arbiter:
    """Construct an arbiter by name (``fixed-priority`` or ``round-robin``)."""
    try:
        factory = ARBITER_FACTORIES[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown arbiter kind {kind!r}; choose from {sorted(ARBITER_FACTORIES)}"
        ) from exc
    return factory(bus)


def arbitration_environment_assumptions(bus: CompletionBusSpec) -> List[Expr]:
    """Constraints every sane arbiter obeys, used by the property checker.

    * a grant is only given to a requesting pipe, and
    * at most one pipe is granted per bus per cycle.
    """
    assumptions: List[Expr] = []
    for pipe in bus.priority:
        assumptions.append(Var(sig.gnt_name(pipe)).implies(Var(sig.req_name(pipe))))
    pipes: Sequence[str] = bus.priority
    for index, pipe in enumerate(pipes):
        for other in pipes[index + 1 :]:
            assumptions.append(~(Var(sig.gnt_name(pipe)) & Var(sig.gnt_name(other))))
    return assumptions


def work_conserving_assumption(bus: CompletionBusSpec) -> Expr:
    """If some pipe requests the bus, some pipe is granted it.

    Fixed-priority and round-robin arbiters are both work conserving; this
    extra assumption tightens the property-checking environment and is what
    makes the completion stages' maximum-performance condition achievable.
    """
    any_request = Var(sig.req_name(bus.priority[0]))
    for pipe in bus.priority[1:]:
        any_request = any_request | Var(sig.req_name(pipe))
    any_grant = Var(sig.gnt_name(bus.priority[0]))
    for pipe in bus.priority[1:]:
        any_grant = any_grant | Var(sig.gnt_name(pipe))
    return any_request.implies(any_grant)
