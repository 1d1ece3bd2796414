"""Runtime register scoreboard with completion-bus bypassing."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .structure import ScoreboardSpec


class ScoreboardOverflowError(RuntimeError):
    """Raised when a register is marked outstanding twice without completing.

    A correct interlock never lets this happen (the WAW case is covered by
    the destination-register conjunct of the issue stall condition), so the
    simulator treats it as a detected hazard rather than silently corrupting
    state; the exception is only raised when hazard recording is disabled.
    """


class Scoreboard:
    """Tracks which architectural registers have an outstanding writeback."""

    def __init__(self, spec: ScoreboardSpec):
        self.spec = spec
        self._outstanding: List[bool] = [False] * spec.num_registers
        self._names = tuple(spec.bit_names())

    # -- queries ------------------------------------------------------------------

    def is_outstanding(self, address: int) -> bool:
        """Is a register waiting for a writeback?"""
        self._check_address(address)
        return self._outstanding[address]

    def outstanding_registers(self) -> List[int]:
        """All register addresses currently outstanding."""
        return [a for a, flag in enumerate(self._outstanding) if flag]

    def outstanding_count(self) -> int:
        """Number of outstanding registers."""
        return sum(self._outstanding)

    def is_hazard(self, address: Optional[int], bypass_addresses: Iterable[int]) -> bool:
        """Outstanding and not bypassed this cycle — the paper's hazard test."""
        if address is None:
            return False
        self._check_address(address)
        return self._outstanding[address] and address not in set(bypass_addresses)

    # -- updates -------------------------------------------------------------------

    def mark_outstanding(self, address: int) -> bool:
        """Record a pending writeback; returns False if it was already pending."""
        self._check_address(address)
        if self._outstanding[address]:
            return False
        self._outstanding[address] = True
        return True

    def complete(self, address: int) -> bool:
        """Clear a pending writeback; returns False if none was pending."""
        self._check_address(address)
        if not self._outstanding[address]:
            return False
        self._outstanding[address] = False
        return True

    def reset(self) -> None:
        """Clear all pending writebacks."""
        self._outstanding = [False] * self.spec.num_registers

    # -- signal view ----------------------------------------------------------------

    def as_signals(self) -> Dict[str, bool]:
        """Scoreboard bits as a signal valuation (``scb[a]`` names)."""
        return dict(zip(self._names, self._outstanding))

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.spec.num_registers:
            raise IndexError(
                f"register address {address} out of range 0..{self.spec.num_registers - 1}"
            )

    def __repr__(self) -> str:
        marks = "".join("1" if flag else "0" for flag in self._outstanding)
        return f"Scoreboard({marks})"
