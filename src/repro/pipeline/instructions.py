"""Instruction model for the cycle-accurate pipeline simulator.

The paper's method is deliberately independent of the instruction set:
"the specification is, except for instructions which enforce an explicit
pipeline stall, independent of the actual instruction set".  The simulator
therefore only models the features the interlock logic can observe:

* which pipe an instruction executes in,
* its source and destination register addresses (for the scoreboard),
* whether it needs a completion-bus writeback,
* whether it is a WAIT-style instruction that enforces an explicit stall.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional


class InstructionKind(Enum):
    """Coarse instruction classes distinguished by the flow-control model."""

    ALU = "alu"  # produces a register result, needs a completion-bus writeback
    NO_WRITEBACK = "no_writeback"  # e.g. store/branch: flows down the pipe, no bus
    WAIT = "wait"  # enforces an explicit stall at the issue stage
    BUBBLE = "bubble"  # an empty issue slot


_uid_counter = itertools.count(1)


@dataclass
class Instruction:
    """One instruction as seen by the pipeline flow control.

    Attributes:
        pipe: name of the pipe the instruction executes in.
        kind: coarse class, see :class:`InstructionKind`.
        src: source register address or None.
        dst: destination register address or None (None for instructions
            without a register result).
        wait_cycles: for WAIT instructions, how many cycles the wait state
            persists before the instruction retires in place.
        uid: unique id assigned at construction, used by traces and reports.
        issue_cycle: filled in by the simulator when the instruction enters
            the issue stage.
        retire_cycle: filled in by the simulator when the instruction
            retires (writes back, completes or is dropped).
    """

    pipe: str
    kind: InstructionKind = InstructionKind.ALU
    src: Optional[int] = None
    dst: Optional[int] = None
    wait_cycles: int = 0
    uid: int = field(default_factory=lambda: next(_uid_counter))
    issue_cycle: Optional[int] = None
    retire_cycle: Optional[int] = None

    def __post_init__(self):
        if self.kind is InstructionKind.WAIT and self.wait_cycles < 1:
            raise ValueError("WAIT instructions need wait_cycles >= 1")
        if self.kind is InstructionKind.ALU and self.dst is None:
            raise ValueError("ALU instructions need a destination register")

    # -- flow-control visible properties -------------------------------------------

    @property
    def needs_writeback(self) -> bool:
        """Does the instruction require the completion bus?"""
        return self.kind is InstructionKind.ALU

    def copy(self) -> "Instruction":
        """A fresh copy with a new uid (used by workload generators)."""
        return replace(self, uid=next(_uid_counter), issue_cycle=None, retire_cycle=None)

    def describe(self) -> str:
        """Compact single-line rendering for traces."""
        parts = [f"#{self.uid}", self.pipe, self.kind.value]
        if self.src is not None:
            parts.append(f"src=r{self.src}")
        if self.dst is not None:
            parts.append(f"dst=r{self.dst}")
        if self.kind is InstructionKind.WAIT:
            parts.append(f"wait={self.wait_cycles}")
        return " ".join(parts)


def alu(pipe: str, dst: int, src: Optional[int] = None) -> Instruction:
    """An ALU instruction producing register ``dst`` (optionally reading ``src``)."""
    return Instruction(pipe=pipe, kind=InstructionKind.ALU, src=src, dst=dst)


def store(pipe: str, src: int) -> Instruction:
    """A no-writeback instruction reading register ``src`` (store/branch class)."""
    return Instruction(pipe=pipe, kind=InstructionKind.NO_WRITEBACK, src=src)


def wait(pipe: str, cycles: int = 1) -> Instruction:
    """A WAIT instruction that holds the issue stage for ``cycles`` cycles."""
    return Instruction(pipe=pipe, kind=InstructionKind.WAIT, wait_cycles=cycles)


def bubble(pipe: str) -> Instruction:
    """An empty issue slot."""
    return Instruction(pipe=pipe, kind=InstructionKind.BUBBLE)


@dataclass
class Program:
    """Per-pipe instruction streams plus external stall-input waveforms.

    Attributes:
        streams: mapping from pipe name to the ordered list of instructions
            fetched into that pipe's issue stage.
        external_inputs: mapping from signal name (e.g. an interrupt request)
            to the list of cycles in which the signal is asserted.
    """

    streams: Dict[str, List[Instruction]] = field(default_factory=dict)
    external_inputs: Dict[str, List[int]] = field(default_factory=dict)

    def stream_for(self, pipe: str) -> List[Instruction]:
        """The instruction stream of a pipe (empty list if none was given)."""
        return self.streams.get(pipe, [])
