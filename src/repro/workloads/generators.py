"""Workload (instruction-stream) generators for the pipeline simulator.

The paper evaluates its method on the FirePath testbench's stimulus; since
that stimulus is proprietary we generate synthetic streams that exercise the
same interlock behaviours:

* register dependencies at every distance (scoreboard stalls and bypasses),
* competition for the completion buses (arbitration-induced stalls),
* explicit WAIT instructions (enforced issue stalls),
* external interrupt-style stall inputs,
* mixes of writeback and non-writeback instructions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..pipeline.instructions import (
    Instruction,
    Program,
    alu,
    bubble,
    store,
    wait,
)
from ..pipeline.structure import Architecture


@dataclass
class WorkloadProfile:
    """Tunable mix of instruction behaviours.

    Attributes:
        length: number of issue slots generated per pipe.
        dependency_rate: probability that an instruction reads the most
            recently written register (creates read-after-write distance-1
            dependencies, the hardest case for the scoreboard/bypass logic).
        store_rate: probability of a no-writeback instruction.
        wait_rate: probability of a WAIT instruction (only emitted for pipes
            that honour WAIT).
        bubble_rate: probability of an empty issue slot.
        max_wait_cycles: upper bound on the duration of WAIT instructions.
        interrupt_rate: probability that an external stall input is asserted
            in a given cycle (applied over ``length * 4`` cycles).
    """

    length: int = 100
    dependency_rate: float = 0.3
    store_rate: float = 0.1
    wait_rate: float = 0.05
    bubble_rate: float = 0.05
    max_wait_cycles: int = 3
    interrupt_rate: float = 0.0

    def __post_init__(self):
        rates = {
            "dependency_rate": self.dependency_rate,
            "store_rate": self.store_rate,
            "wait_rate": self.wait_rate,
            "bubble_rate": self.bubble_rate,
            "interrupt_rate": self.interrupt_rate,
        }
        for name, value in rates.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.length < 1:
            raise ValueError("workload length must be at least 1")


HAZARD_HEAVY = WorkloadProfile(dependency_rate=0.8, store_rate=0.05, wait_rate=0.0, bubble_rate=0.0)
"""A profile dominated by back-to-back register dependencies."""

CONTENTION_HEAVY = WorkloadProfile(dependency_rate=0.05, store_rate=0.0, wait_rate=0.0, bubble_rate=0.0)
"""A profile of independent writeback instructions that all fight for the bus."""

WAIT_HEAVY = WorkloadProfile(dependency_rate=0.2, wait_rate=0.3, max_wait_cycles=4)
"""A profile with frequent explicit WAIT instructions."""

BALANCED = WorkloadProfile()
"""The default mixed profile."""


class WorkloadGenerator:
    """Generates reproducible random programs for an architecture."""

    def __init__(self, architecture: Architecture, seed: int = 0):
        self.architecture = architecture
        self.seed = seed

    def generate(self, profile: WorkloadProfile = BALANCED) -> Program:
        """Generate one program according to the given profile."""
        rng = random.Random(self.seed)
        num_registers = (
            self.architecture.scoreboard.num_registers
            if self.architecture.scoreboard
            else 8
        )
        streams: Dict[str, List[Instruction]] = {}
        for pipe in self.architecture.pipes:
            streams[pipe.name] = self._stream_for_pipe(
                pipe.name, pipe.has_wait, profile, rng, num_registers
            )
        external: Dict[str, List[int]] = {}
        if profile.interrupt_rate > 0.0:
            horizon = profile.length * 4
            for stall_input in self.architecture.extra_stall_inputs:
                asserted = [
                    cycle
                    for cycle in range(horizon)
                    if rng.random() < profile.interrupt_rate
                ]
                external[stall_input.signal] = asserted
        return Program(streams=streams, external_inputs=external)

    def _stream_for_pipe(
        self,
        pipe: str,
        has_wait: bool,
        profile: WorkloadProfile,
        rng: random.Random,
        num_registers: int,
    ) -> List[Instruction]:
        stream: List[Instruction] = []
        last_written: Optional[int] = None
        for _ in range(profile.length):
            roll = rng.random()
            if roll < profile.bubble_rate:
                stream.append(bubble(pipe))
                continue
            roll -= profile.bubble_rate
            if has_wait and roll < profile.wait_rate:
                stream.append(wait(pipe, rng.randint(1, profile.max_wait_cycles)))
                continue
            roll -= profile.wait_rate if has_wait else 0.0
            src = self._pick_source(rng, profile, last_written, num_registers)
            if roll < profile.store_rate:
                stream.append(store(pipe, src if src is not None else rng.randrange(num_registers)))
                continue
            dst = rng.randrange(num_registers)
            stream.append(alu(pipe, dst=dst, src=src))
            last_written = dst
        return stream

    def _pick_source(
        self,
        rng: random.Random,
        profile: WorkloadProfile,
        last_written: Optional[int],
        num_registers: int,
    ) -> Optional[int]:
        if last_written is not None and rng.random() < profile.dependency_rate:
            return last_written
        if rng.random() < 0.5:
            return rng.randrange(num_registers)
        return None


def independent_stream(pipe: str, length: int, num_registers: int = 8) -> List[Instruction]:
    """Writeback instructions with no mutual dependencies (pure bus pressure)."""
    return [alu(pipe, dst=index % num_registers) for index in range(length)]


def completion_contention_program(architecture: Architecture, length: int = 64) -> Program:
    """Independent writeback instructions in every pipe of every bus.

    Maximises completion-bus contention so the difference between the
    maximum-performance and the conservative completion interlock is
    clearly visible (the paper's completion-redesign result).
    """
    num_registers = (
        architecture.scoreboard.num_registers if architecture.scoreboard else 8
    )
    streams = {
        pipe.name: independent_stream(pipe.name, length, num_registers)
        for pipe in architecture.pipes
    }
    return Program(streams=streams)
