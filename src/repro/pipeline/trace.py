"""Simulation traces: per-cycle rows and records, hazard events and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..expr.compile import WORD_BITS


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


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_column(values: Sequence[bool]) -> List[int]:
    """Pack one signal's per-cycle values into 64-bit words (cycle k → bit k%64).

    The bools become ``"0"``/``"1"`` bytes and each 64-cycle chunk is
    parsed, reversed, as one base-2 integer, so the per-cycle work runs in C.
    """
    digits = bytes(values).translate(_BITS)
    return [
        int(digits[start : start + WORD_BITS][::-1], 2)
        for start in range(0, len(digits), WORD_BITS)
    ]


def _sample(record: CycleRecord, name: str, defaults: Dict[str, bool]) -> bool:
    """One signal of one hand-built record: moe first, then inputs, then defaults."""
    if name in record.moe:
        return bool(record.moe[name])
    if name in record.inputs:
        return bool(record.inputs[name])
    if name in defaults:
        return bool(defaults[name])
    raise KeyError(name)


class SimulationTrace:
    """Result of one simulation run.

    A simulated trace is columnar: per cycle it keeps one input row (values
    in :attr:`input_names` order), one moe row (:attr:`moe_names` order),
    one occupancy row (:attr:`occupancy_names` order: the occupying
    instruction uid or None) and the cycle's ``issued``, ``retired``,
    ``moved`` and ``stalled`` lists.  Bulk readers (the assertion monitor,
    the stall classifier, the coverage scorer) pack signal columns straight
    from the rows; :class:`CycleRecord` objects are built only when read,
    by :meth:`record` or, for the whole run, by :attr:`cycles` — a
    read-only view of the rows.  The rows are never modified after they
    are appended: cycles that repeat a settled cycle share its row objects
    (:meth:`repeat_last_cycle`).

    A hand-built trace passes its records as ``cycles=[...]``; they are
    then the trace's content and :attr:`cycles` returns that list.
    """

    def __init__(
        self,
        architecture_name: str,
        interlock_name: str,
        cycles: Optional[List[CycleRecord]] = None,
        hazards: Optional[List[HazardEvent]] = None,
        retired_instructions: int = 0,
        issued_instructions: int = 0,
        dropped_instructions: int = 0,
        *,
        input_names: Sequence[str] = (),
        moe_names: Sequence[str] = (),
        occupancy_names: Sequence[str] = (),
    ):
        self.architecture_name = architecture_name
        self.interlock_name = interlock_name
        self.hazards: List[HazardEvent] = hazards if hazards is not None else []
        self.retired_instructions = retired_instructions
        self.issued_instructions = issued_instructions
        self.dropped_instructions = dropped_instructions
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
        # The records: a hand-built trace's content, or a simulated
        # trace's view built on first read of ``cycles``.
        self._columnar = cycles is None
        self._records: Optional[List[CycleRecord]] = cycles
        self._repeated_cycles = 0

    def __repr__(self) -> str:
        return (
            f"SimulationTrace({self.architecture_name!r}, {self.interlock_name!r}, "
            f"cycles={self.num_cycles()}, hazards={len(self.hazards)})"
        )

    # -- records --------------------------------------------------------------------

    @property
    def cycles(self) -> List[CycleRecord]:
        """Every cycle's :class:`CycleRecord` (built on first access)."""
        if self._records is None:
            self._records = [self.record(index) for index in range(self.num_cycles())]
        return self._records

    def record(self, index: int) -> CycleRecord:
        """The record of the ``index``-th simulated cycle."""
        if not self._columnar:
            return self._records[index]
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
        columns.  Each signal is resolved from the cycle's moe valuation
        first, then its inputs; a signal a cycle does not sample falls back
        to ``defaults`` or raises ``KeyError`` with the signal name.
        """
        defaults = defaults or {}
        num_cycles = self.num_cycles()
        if not num_cycles:
            return {name: [] for name in names}
        if not self._columnar:
            return {
                name: _pack_column([_sample(record, name, defaults) for record in self._records])
                for name in names
            }
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
            columns[name] = _pack_column(values)
        return columns

    # -- aggregate statistics -------------------------------------------------------

    def num_cycles(self) -> int:
        """Number of simulated cycles."""
        if self._columnar:
            return len(self.moe_rows)
        return len(self._records)

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
        """Number of cycles in which a given moe flag was low."""
        return sum(1 for record in self.cycles if not record.moe.get(moe_flag, True))

    def stall_cycles_by_flag(self) -> Dict[str, int]:
        """Low-cycle counts for every moe flag."""
        if not self.cycles:
            return {}
        counts: Dict[str, int] = {flag: 0 for flag in self.cycles[0].moe}
        for record in self.cycles:
            for flag, value in record.moe.items():
                if not value:
                    counts[flag] = counts.get(flag, 0) + 1
        return counts

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
