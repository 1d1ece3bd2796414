"""Textual reports combining assertion results and physical hazards."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..pipeline.trace import SimulationTrace
from .generate import AssertionKind
from .monitor import MonitorReport


@dataclass
class VerificationSummary:
    """Joins what the assertions said with what physically happened.

    The interesting quadrants (Section 4 of the paper):

    * performance assertions fired, no hazards — unnecessary stalls found;
    * functional assertions fired and hazards observed — a real hazard the
      interlock failed to prevent;
    * nothing fired, no hazards — clean run (which, as the paper stresses,
      still proves nothing by itself because simulation is not exhaustive).
    """

    trace: SimulationTrace
    monitor: MonitorReport

    @property
    def functional_violations(self) -> int:
        """Number of functional assertion failures (potential hazards)."""
        return self.monitor.violation_count(AssertionKind.FUNCTIONAL)

    @property
    def performance_violations(self) -> int:
        """Number of performance assertion failures (unnecessary stalls)."""
        return self.monitor.violation_count(AssertionKind.PERFORMANCE)

    @property
    def hazards(self) -> int:
        """Number of physically observed hazards."""
        return self.trace.hazard_count()

    def verdict(self) -> str:
        """Coarse classification of the run."""
        if self.functional_violations and self.hazards:
            return "functional-bug"
        if self.functional_violations:
            return "functional-violation-latent"
        if self.performance_violations:
            return "performance-bug"
        return "clean"

    def describe(self) -> str:
        """Multi-line report."""
        lines = [
            f"Verification summary ({self.trace.interlock_name} on "
            f"{self.trace.architecture_name}):",
            f"  verdict:                  {self.verdict()}",
            f"  cycles:                   {self.trace.num_cycles()}",
            f"  retired instructions:     {self.trace.retired_instructions}",
            f"  IPC:                      {self.trace.instructions_per_cycle():.3f}",
            f"  functional violations:    {self.functional_violations}",
            f"  performance violations:   {self.performance_violations}",
            f"  physical hazards:         {self.hazards}",
        ]
        first_perf = self.monitor.first_violation(AssertionKind.PERFORMANCE)
        if first_perf is not None:
            lines.append(f"  first unnecessary stall:  {first_perf.describe()}")
        first_func = self.monitor.first_violation(AssertionKind.FUNCTIONAL)
        if first_func is not None:
            lines.append(f"  first functional failure: {first_func.describe()}")
        return "\n".join(lines)


def violations_by_stage(report: MonitorReport) -> Dict[str, int]:
    """Violation counts grouped by the moe flag the assertion governs."""
    counts: Dict[str, int] = {}
    for violation in report.violations:
        counts[violation.assertion.moe] = counts.get(violation.assertion.moe, 0) + 1
    return counts

