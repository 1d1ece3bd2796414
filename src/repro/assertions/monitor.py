"""Runtime assertion monitors for simulation traces.

The monitor plays the role of the paper's testbench assertions: every cycle
it samples the control signals (interlock inputs plus the moe flags the
implementation drove) and evaluates each armed assertion.  Violations are
collected with full context so that a report can tell a designer *which*
stage stalled unnecessarily (performance bug) or moved when it should have
stalled (functional bug), and in which cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..expr.compile import WORD_BITS, CompiledOutputs, compile_outputs, iter_set_bits, tail_mask
from ..expr.evaluate import UnboundVariableError
from ..pipeline.trace import CycleRecord, SimulationTrace
from .generate import Assertion, AssertionKind


@dataclass(frozen=True)
class AssertionViolation:
    """One assertion failure observed in one cycle."""

    cycle: int
    assertion: Assertion
    signals: Dict[str, bool]

    def describe(self) -> str:
        """Single-line rendering for reports."""
        return (
            f"cycle {self.cycle}: {self.assertion.kind.value} assertion "
            f"{self.assertion.name} failed ({self.assertion.moe})"
        )


class MonitorReport:
    """Aggregate result of monitoring one trace.

    The report keeps, per armed assertion, its packed failure words (cycle
    ``k`` of the trace → bit ``k % 64`` of word ``k // 64``).  Counts and
    :meth:`clean` are population counts over those words;
    :attr:`violations` builds the :class:`AssertionViolation` list on first
    access, in cycle-major order (assertion order within a cycle).
    """

    def __init__(
        self,
        trace_name: str,
        cycles_checked: int = 0,
        assertions_checked: int = 0,
        trace: Optional[SimulationTrace] = None,
        failures: Sequence[Tuple[Assertion, Sequence[int]]] = (),
    ):
        self.trace_name = trace_name
        self.cycles_checked = cycles_checked
        self.assertions_checked = assertions_checked
        self.trace = trace
        self.failures = list(failures)
        self._violations: Optional[List[AssertionViolation]] = None

    @property
    def violations(self) -> List[AssertionViolation]:
        """Every violation, cycle-major (built on first access)."""
        if self._violations is None:
            self._violations = self._build_violations()
        return self._violations

    def _build_violations(self) -> List[AssertionViolation]:
        violations: List[AssertionViolation] = []
        num_words = max((len(words) for _, words in self.failures), default=0)
        for word_index in range(num_words):
            failed = 0
            for _, words in self.failures:
                failed |= words[word_index]
            for bit in iter_set_bits(failed):
                record = self.trace.record(word_index * WORD_BITS + bit)
                signals = record.signals()
                for assertion, words in self.failures:
                    if (words[word_index] >> bit) & 1:
                        violations.append(
                            AssertionViolation(
                                cycle=record.cycle,
                                assertion=assertion,
                                signals=dict(signals),
                            )
                        )
        return violations

    def violation_count(self, kind: Optional[AssertionKind] = None) -> int:
        """Number of violations, optionally restricted to one assertion kind."""
        return sum(
            word.bit_count()
            for assertion, words in self.failures
            if kind is None or assertion.kind is kind
            for word in words
        )

    def first_violation(self, kind: Optional[AssertionKind] = None) -> Optional[AssertionViolation]:
        """The earliest violation (of a kind), or None."""
        candidates = [
            v for v in self.violations if kind is None or v.assertion.kind is kind
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda v: v.cycle)

    def clean(self) -> bool:
        """True when no assertion fired."""
        return not any(any(words) for _, words in self.failures)

    def describe(self) -> str:
        """Multi-line summary."""
        lines = [
            f"Assertion monitor report for {self.trace_name}:",
            f"  cycles checked:      {self.cycles_checked}",
            f"  assertions armed:    {self.assertions_checked}",
            f"  violations:          {self.violation_count()}",
            f"    functional:        {self.violation_count(AssertionKind.FUNCTIONAL)}",
            f"    performance:       {self.violation_count(AssertionKind.PERFORMANCE)}",
        ]
        if not self.clean():
            lines.append("  first violations:")
            for violation in self.violations[:5]:
                lines.append(f"    {violation.describe()}")
        return "\n".join(lines)


class AssertionMonitor:
    """Evaluates a set of assertions cycle by cycle.

    Whole traces are checked bit-parallel: all assertion formulas are
    compiled into one machine-word bitwise function (once per process
    for each distinct assertion set, so monitors over equal assertions
    share it), the trace's signal columns are packed into 64-cycle
    words, and every assertion is then decided for 64 cycles per call.
    Per-cycle evaluation (:meth:`check_cycle`) remains available for
    streaming use.
    """

    def __init__(self, assertions: Iterable[Assertion]):
        self.assertions = list(assertions)
        if not self.assertions:
            raise ValueError("an assertion monitor needs at least one assertion")
        self._compiled: Optional[CompiledOutputs] = None

    def _compile(self) -> CompiledOutputs:
        if self._compiled is None:
            self._compiled = compile_outputs(
                {index: assertion.formula for index, assertion in enumerate(self.assertions)}
            )
        return self._compiled

    def _pack_columns(self, trace: SimulationTrace) -> Dict[str, List[int]]:
        """Pack every referenced signal's per-cycle values into 64-bit words."""
        try:
            return trace.pack_signal_columns(list(self._compiled.names))
        except KeyError as exc:
            name = exc.args[0]
            offender = next(
                assertion
                for assertion in self.assertions
                if name in assertion.formula.variables()
            )
            raise KeyError(
                f"assertion {offender.name} references signal {name!r} "
                "which the trace does not sample"
            ) from exc

    def check_cycle(self, cycle: int, signals: Mapping[str, bool]) -> List[AssertionViolation]:
        """Evaluate every armed assertion on one cycle's signal sample."""
        violations: List[AssertionViolation] = []
        for assertion in self.assertions:
            try:
                holds = assertion.holds(signals)
            except UnboundVariableError as exc:
                raise KeyError(
                    f"assertion {assertion.name} references signal {exc.args[0]!r} "
                    "which the trace does not sample"
                ) from exc
            if not holds:
                violations.append(
                    AssertionViolation(
                        cycle=cycle, assertion=assertion, signals=dict(signals)
                    )
                )
        return violations

    def check_record(self, record: CycleRecord) -> List[AssertionViolation]:
        """Evaluate the assertions on one simulator cycle record."""
        return self.check_cycle(record.cycle, record.signals())

    def check_trace(self, trace: SimulationTrace) -> MonitorReport:
        """Evaluate the assertions on every cycle of a simulation trace.

        Equivalent to :meth:`check_record` per cycle (the report's
        violations come in the same cycle-major order) but evaluated 64
        cycles at a time through the bit-parallel compiled formulas; the
        report keeps each assertion's failure words and builds violation
        objects only when they are read.
        """
        num_cycles = trace.num_cycles()
        trace_name = f"{trace.architecture_name}/{trace.interlock_name}"
        if not num_cycles:
            return MonitorReport(trace_name, 0, len(self.assertions))
        compiled = self._compile()
        columns = self._pack_columns(trace)
        failures = [
            (
                assertion,
                [~word & tail_mask(num_cycles, index) for index, word in enumerate(holds)],
            )
            for assertion, holds in zip(
                self.assertions, compiled.evaluate_packed(columns, num_cycles)
            )
        ]
        return MonitorReport(
            trace_name,
            num_cycles,
            len(self.assertions),
            trace=trace if any(any(words) for _, words in failures) else None,
            failures=failures,
        )


def monitor_trace(trace: SimulationTrace, assertions: Iterable[Assertion]) -> MonitorReport:
    """One-call convenience wrapper: monitor a finished trace."""
    return AssertionMonitor(assertions).check_trace(trace)
