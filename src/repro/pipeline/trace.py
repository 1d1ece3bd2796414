"""Simulation traces: per-cycle rows, their record view, hazard events and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..expr.compile import pack_bools


class HazardKind(Enum):
    """Physical failures the simulator can detect independently of the spec."""

    OVERWRITE = "overwrite"  # a stage's content was clobbered before it could leave
    STALE_OPERAND = "stale_operand"  # issued while a source register was outstanding and not bypassed
    WAW_VIOLATION = "waw_violation"  # issued while its destination register was still outstanding
    ISSUED_DURING_WAIT = "issued_during_wait"  # the issue stage accepted work during an enforced wait
    LOCKSTEP_BROKEN = "lockstep_broken"  # lock-step issue stages moved out of synchrony


@dataclass(frozen=True)
class HazardEvent:
    """One physically observed hazard (the consequence of a functional bug)."""

    cycle: int
    kind: HazardKind
    pipe: str
    stage: int
    instruction_uid: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        """Single-line rendering for reports."""
        uid = f" insn#{self.instruction_uid}" if self.instruction_uid is not None else ""
        return f"cycle {self.cycle}: {self.kind.value} at {self.pipe}.{self.stage}{uid} {self.detail}"


@dataclass
class CycleRecord:
    """Everything observable about one simulated cycle.

    Attributes:
        cycle: cycle index, starting at 0.
        inputs: control-input valuation presented to the interlock.
        moe: moe flag valuation the interlock produced.
        occupancy: per-stage occupying instruction uid (None when empty),
            keyed by ``"pipe.index"``.
        issued: uids of instructions that entered stage 1 this cycle.
        retired: uids of instructions that completed or retired this cycle.
        moved: stage keys whose content advanced this cycle.
        stalled: stage keys that held content which could not advance.
    """

    cycle: int
    inputs: Dict[str, bool]
    moe: Dict[str, bool]
    occupancy: Dict[str, Optional[int]]
    issued: List[int] = field(default_factory=list)
    retired: List[int] = field(default_factory=list)
    moved: List[str] = field(default_factory=list)
    stalled: List[str] = field(default_factory=list)

    def signals(self) -> Dict[str, bool]:
        """Merged input + moe valuation, as sampled by assertion monitors."""
        merged = dict(self.inputs)
        merged.update(self.moe)
        return merged


class SimulationTrace:
    """Result of one simulation run.

    A trace is columnar: per cycle it keeps one input row (values in
    :attr:`input_names` order), one moe row (:attr:`moe_names` order), one
    occupancy row (:attr:`occupancy_names` order: the occupying
    instruction uid or None) and the cycle's ``issued``, ``retired``,
    ``moved`` and ``stalled`` lists.  Bulk readers (the assertion monitor,
    the stall classifier, the coverage scorer, the VCD writer) read the
    rows; :meth:`record` builds one cycle's :class:`CycleRecord` view of
    them.  The rows are never modified after they are appended: cycles
    that repeat a settled cycle share its row objects
    (:meth:`repeat_last_cycle`).
    """

    def __init__(
        self,
        architecture_name: str,
        interlock_name: str,
        *,
        input_names: Sequence[str] = (),
        moe_names: Sequence[str] = (),
        occupancy_names: Sequence[str] = (),
    ):
        self.architecture_name = architecture_name
        self.interlock_name = interlock_name
        self.hazards: List[HazardEvent] = []
        self.retired_instructions = 0
        self.issued_instructions = 0
        self.dropped_instructions = 0
        self.input_names = tuple(input_names)
        self.moe_names = tuple(moe_names)
        self.occupancy_names = tuple(occupancy_names)
        self.input_rows: List[List[bool]] = []
        self.moe_rows: List[List[bool]] = []
        self.occupancy_rows: List[List[Optional[int]]] = []
        self.issued: List[List[int]] = []
        self.retired: List[List[int]] = []
        self.moved: List[List[str]] = []
        self.stalled: List[List[str]] = []
        self._repeated_cycles = 0

    def __repr__(self) -> str:
        return (
            f"SimulationTrace({self.architecture_name!r}, {self.interlock_name!r}, "
            f"cycles={self.num_cycles()}, hazards={len(self.hazards)})"
        )

    # -- records --------------------------------------------------------------------

    def record(self, index: int) -> CycleRecord:
        """The record of the ``index``-th simulated cycle."""
        return CycleRecord(
            cycle=index,
            inputs=dict(zip(self.input_names, self.input_rows[index])),
            moe=dict(zip(self.moe_names, self.moe_rows[index])),
            occupancy=dict(zip(self.occupancy_names, self.occupancy_rows[index])),
            issued=list(self.issued[index]),
            retired=list(self.retired[index]),
            moved=list(self.moved[index]),
            stalled=list(self.stalled[index]),
        )

    def repeat_last_cycle(self, count: int) -> None:
        """Append ``count`` copies of the last simulated cycle.

        The copies share the last cycle's row and list objects, so the
        repetition costs no per-cycle Python work.
        """
        for column in (
            self.input_rows,
            self.moe_rows,
            self.occupancy_rows,
            self.issued,
            self.retired,
            self.moved,
            self.stalled,
        ):
            column.extend([column[-1]] * count)
        self._repeated_cycles += count

    @property
    def stepped_cycles(self) -> int:
        """Cycles the simulator actually stepped (:meth:`num_cycles` unless it settled)."""
        return self.num_cycles() - self._repeated_cycles

    # -- bulk access ----------------------------------------------------------------

    def pack_signal_columns(
        self,
        names: List[str],
        defaults: Optional[Dict[str, bool]] = None,
    ) -> Dict[str, List[int]]:
        """Pack per-cycle signal values into 64-bit words (cycle k → bit k%64).

        This is the input format of the bit-parallel expression evaluator
        (:mod:`repro.expr.compile`): the assertion monitor and the coverage
        scorer both evaluate their formulas 64 cycles at a time over these
        columns.  Each signal is resolved from the moe row first, then the
        input row; a signal the trace does not sample falls back to
        ``defaults`` or raises ``KeyError`` with the signal name.
        """
        defaults = defaults or {}
        num_cycles = self.num_cycles()
        if not num_cycles:
            return {name: [] for name in names}
        moe_position = {name: index for index, name in enumerate(self.moe_names)}
        input_position = {name: index for index, name in enumerate(self.input_names)}
        moe_columns = input_columns = None
        columns: Dict[str, List[int]] = {}
        for name in names:
            if name in moe_position:
                if moe_columns is None:
                    moe_columns = list(zip(*self.moe_rows))
                values = moe_columns[moe_position[name]]
            elif name in input_position:
                if input_columns is None:
                    input_columns = list(zip(*self.input_rows))
                values = input_columns[input_position[name]]
            elif name in defaults:
                values = [bool(defaults[name])] * num_cycles
            else:
                raise KeyError(name)
            columns[name] = pack_bools(values)
        return columns

    # -- aggregate statistics -------------------------------------------------------

    def num_cycles(self) -> int:
        """Number of simulated cycles."""
        return len(self.moe_rows)

    def hazard_count(self, kind: Optional[HazardKind] = None) -> int:
        """Number of hazards observed (optionally of one kind)."""
        if kind is None:
            return len(self.hazards)
        return sum(1 for hazard in self.hazards if hazard.kind is kind)

    def hazard_free(self) -> bool:
        """True when the run completed without any physical hazard."""
        return not self.hazards

    def instructions_per_cycle(self) -> float:
        """Retired instructions per cycle (the throughput measure)."""
        if not self.num_cycles():
            return 0.0
        return self.retired_instructions / self.num_cycles()

    def cycles_per_instruction(self) -> float:
        """Average cycles per retired instruction (lower is better)."""
        if self.retired_instructions == 0:
            return float("inf")
        return self.num_cycles() / self.retired_instructions

    def stall_cycles(self, moe_flag: str) -> int:
        """Number of cycles in which a given moe flag was low (0 if never driven)."""
        return self.stall_cycles_by_flag().get(moe_flag, 0)

    def stall_cycles_by_flag(self) -> Dict[str, int]:
        """Low-cycle counts for every moe flag (empty for an empty trace)."""
        if not self.moe_rows:
            return {}
        return {
            flag: column.count(False)
            for flag, column in zip(self.moe_names, zip(*self.moe_rows))
        }

    def total_stall_cycles(self) -> int:
        """Sum of low cycles over all moe flags."""
        return sum(self.stall_cycles_by_flag().values())

    def describe(self) -> str:
        """Multi-line summary used by examples and benchmark output."""
        lines = [
            f"Simulation of {self.architecture_name} with interlock {self.interlock_name!r}:",
            f"  cycles:             {self.num_cycles()}",
            f"  issued:             {self.issued_instructions}",
            f"  retired:            {self.retired_instructions}",
            f"  dropped:            {self.dropped_instructions}",
            f"  IPC:                {self.instructions_per_cycle():.3f}",
            f"  stall cycles (sum): {self.total_stall_cycles()}",
            f"  hazards:            {self.hazard_count()}",
        ]
        if self.hazards:
            lines.append("  first hazards:")
            for hazard in self.hazards[:5]:
                lines.append(f"    {hazard.describe()}")
        return "\n".join(lines)
