"""Throughput statistics and comparisons between interlock implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..pipeline.trace import SimulationTrace


@dataclass
class ThroughputStats:
    """Headline throughput numbers for one simulation run."""

    interlock_name: str
    cycles: int
    retired: int
    ipc: float
    cpi: float
    total_stall_cycles: int
    hazards: int

    @classmethod
    def from_trace(cls, trace: SimulationTrace) -> "ThroughputStats":
        """Extract the statistics from a finished trace."""
        return cls(
            interlock_name=trace.interlock_name,
            cycles=trace.num_cycles(),
            retired=trace.retired_instructions,
            ipc=trace.instructions_per_cycle(),
            cpi=trace.cycles_per_instruction(),
            total_stall_cycles=trace.total_stall_cycles(),
            hazards=trace.hazard_count(),
        )

    def as_row(self) -> Dict[str, object]:
        """Row for report tables."""
        return {
            "interlock": self.interlock_name,
            "cycles": self.cycles,
            "retired": self.retired,
            "IPC": f"{self.ipc:.3f}",
            "CPI": f"{self.cpi:.3f}" if self.retired else "inf",
            "stall cycles": self.total_stall_cycles,
            "hazards": self.hazards,
        }


@dataclass
class Comparison:
    """Relative performance of an implementation against a baseline."""

    baseline: ThroughputStats
    candidate: ThroughputStats

    @property
    def speedup(self) -> float:
        """Baseline cycles divided by candidate cycles (>1 means candidate is faster)."""
        if self.candidate.cycles == 0:
            return float("inf")
        return self.baseline.cycles / self.candidate.cycles

    @property
    def extra_stall_cycles(self) -> int:
        """Stall cycles the baseline spends beyond the candidate."""
        return self.baseline.total_stall_cycles - self.candidate.total_stall_cycles

    def as_row(self) -> Dict[str, object]:
        """Row for report tables."""
        return {
            "baseline": self.baseline.interlock_name,
            "candidate": self.candidate.interlock_name,
            "baseline cycles": self.baseline.cycles,
            "candidate cycles": self.candidate.cycles,
            "speedup": f"{self.speedup:.3f}x",
            "extra stalls removed": self.extra_stall_cycles,
        }


def compare_traces(baseline: SimulationTrace, candidate: SimulationTrace) -> Comparison:
    """Compare two runs of the same program under different interlocks."""
    return Comparison(
        baseline=ThroughputStats.from_trace(baseline),
        candidate=ThroughputStats.from_trace(candidate),
    )


def stats_table(traces: Sequence[SimulationTrace]) -> List[Dict[str, object]]:
    """Throughput rows for several runs (used by the benchmark harnesses)."""
    return [ThroughputStats.from_trace(trace).as_row() for trace in traces]
