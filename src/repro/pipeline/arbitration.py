"""Completion-bus arbitration schemes.

The paper's example gives the short pipe fixed priority over the long pipe
and notes that "the completion logic, eg the arbitration scheme of the bus,
can also be included in the functional specification".  Two arbiters are
provided; the interlock specification is agnostic to the choice, which the
test-suite verifies by running both under the same derived interlock.
What the property checker assumes of any arbiter is stated with the rest of
the environment, in :mod:`repro.checking.environment`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Mapping, Optional

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
