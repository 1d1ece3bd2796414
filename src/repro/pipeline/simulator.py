"""Cycle-accurate simulator of interlocked pipeline flow control.

The simulator models exactly what the DAC 2002 method reasons about: the
movement of instructions through pipeline stages under the control of an
interlock block that drives the per-stage moving-or-empty (moe) flags.  The
datapath obeys the moe flags the interlock produces — as real hardware
would — and *independently* watches for physical mishaps:

* an instruction overwritten before it could leave its stage,
* an instruction issued while one of its registers was outstanding and not
  bypassed,
* an instruction issued while an enforced wait/interrupt was pending,
* lock-step issue stages moving out of synchrony.

A correct interlock never lets these happen; a functionally buggy one does,
and a merely conservative one produces no hazards but wastes cycles.  The
assertion monitors in :mod:`repro.assertions` check the specification on the
same per-cycle signal samples, so the experiments can relate specification
violations to their physical consequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from . import signals as sig
from .arbitration import Arbiter, make_arbiter
from .instructions import Instruction, InstructionKind, Program
from .interlock import Interlock
from .scoreboard import Scoreboard
from .structure import Architecture, PipeSpec
from .trace import CycleRecord, HazardEvent, HazardKind, SimulationTrace


@dataclass
class SimulatorConfig:
    """Simulation options.

    Attributes:
        max_cycles: hard cap on simulated cycles (guards against deadlocked
            interlocks).
        arbiter: completion-bus arbitration scheme, ``"fixed-priority"`` or
            ``"round-robin"``.
        drain: keep simulating after the instruction streams are exhausted
            until the pipeline is empty (or the cap is reached).
        stop_on_hazard: abort the run at the first physical hazard.
    """

    max_cycles: int = 10_000
    arbiter: str = "fixed-priority"
    drain: bool = True
    stop_on_hazard: bool = False


@dataclass
class _Slot:
    """Occupancy of one pipeline stage."""

    instruction: Optional[Instruction] = None
    wait_remaining: int = 0

    @property
    def occupied(self) -> bool:
        return self.instruction is not None

    def clear(self) -> None:
        self.instruction = None
        self.wait_remaining = 0


class PipelineSimulator:
    """Drives a :class:`Program` through an :class:`Architecture` under an interlock."""

    def __init__(
        self,
        architecture: Architecture,
        interlock: Interlock,
        config: Optional[SimulatorConfig] = None,
    ):
        self.architecture = architecture
        self.interlock = interlock
        self.config = config or SimulatorConfig()
        self.scoreboard = (
            Scoreboard(architecture.scoreboard) if architecture.scoreboard else None
        )
        self._arbiters: Dict[str, Arbiter] = {
            bus.name: make_arbiter(self.config.arbiter, bus) for bus in architecture.buses
        }
        self._slots: Dict[Tuple[str, int], _Slot] = {}
        for pipe in architecture.pipes:
            for stage in pipe.stages():
                self._slots[(pipe.name, stage.index)] = _Slot()
        self._fetch_index: Dict[str, int] = {pipe.name: 0 for pipe in architecture.pipes}
        # The interlock must drive every moe flag the architecture defines;
        # a partial implementation is rejected at the first step.
        self._expected_moe = set(architecture.moe_signals())
        self._input_signals = tuple(architecture.input_signals())

    # -- public API -------------------------------------------------------------------

    def run(self, program: Program) -> SimulationTrace:
        """Simulate a whole program and return the trace."""
        self.reset()
        trace = SimulationTrace(
            architecture_name=self.architecture.name,
            interlock_name=self.interlock.name,
        )
        for cycle in range(self.config.max_cycles):
            if self._finished(program):
                break
            record = self.step(cycle, program, trace)
            trace.cycles.append(record)
            if self.config.stop_on_hazard and trace.hazards:
                break
        return trace

    def reset(self) -> None:
        """Reset pipeline occupancy, scoreboard, arbiters and the interlock."""
        for slot in self._slots.values():
            slot.clear()
        if self.scoreboard is not None:
            self.scoreboard.reset()
        for arbiter in self._arbiters.values():
            arbiter.reset()
        for pipe in self._fetch_index:
            self._fetch_index[pipe] = 0
        self.interlock.reset()

    # -- per-cycle behaviour ---------------------------------------------------------------

    def step(self, cycle: int, program: Program, trace: SimulationTrace) -> CycleRecord:
        """Simulate one cycle; mutates pipeline state and appends hazards to the trace."""
        self.interlock.on_cycle_start(cycle)

        inputs = self._sample_inputs(cycle, program)
        grants = self._arbitrate(inputs)
        inputs.update(self._grant_signals(grants))
        inputs.update(self._bus_target_signals(grants))

        moe = dict(self.interlock.compute_moe(inputs))
        missing = self._expected_moe - set(moe)
        if missing:
            raise RuntimeError(
                f"interlock {self.interlock.name!r} did not drive moe flags {sorted(missing)}"
            )

        record = CycleRecord(
            cycle=cycle,
            inputs=inputs,
            moe=moe,
            occupancy=self._occupancy_snapshot(),
        )

        self._check_lockstep(cycle, moe, trace)
        self._advance(cycle, program, moe, grants, record, trace)
        return record

    # -- input sampling -----------------------------------------------------------------------

    def _sample_inputs(self, cycle: int, program: Program) -> Dict[str, bool]:
        arch = self.architecture
        inputs: Dict[str, bool] = dict.fromkeys(self._input_signals, False)

        for pipe in arch.pipes:
            for stage in pipe.stages():
                slot = self._slots[(pipe.name, stage.index)]
                inputs[stage.rtm] = self._requires_to_move(pipe, stage.index, slot)
            if pipe.completion_bus is not None:
                completion_slot = self._slots[(pipe.name, pipe.num_stages)]
                inputs[sig.req_name(pipe.name)] = self._requests_bus(completion_slot)

        if self.scoreboard is not None:
            inputs.update(self.scoreboard.as_signals())
            for pipe in arch.pipes:
                issue_slot = self._slots[(pipe.name, 1)]
                instruction = issue_slot.instruction
                for which, address in (
                    ("src", instruction.src if instruction else None),
                    ("dst", instruction.dst if instruction else None),
                ):
                    for candidate in range(arch.scoreboard.num_registers):
                        name = sig.stage_regaddr_indicator(pipe.name, 1, which, candidate)
                        inputs[name] = address == candidate

        for stall_input in arch.extra_stall_inputs:
            asserted = program.external_asserted(stall_input.signal, cycle)
            for pipe_name in stall_input.applies_to:
                issue_slot = self._slots[(pipe_name, 1)]
                instruction = issue_slot.instruction
                if (
                    instruction is not None
                    and instruction.is_wait
                    and issue_slot.wait_remaining > 0
                ):
                    asserted = True
            inputs[stall_input.signal] = asserted
        return inputs

    def _requires_to_move(self, pipe: PipeSpec, stage_index: int, slot: _Slot) -> bool:
        instruction = slot.instruction
        if instruction is None or instruction.is_bubble:
            return False
        if instruction.is_wait:
            return False
        if stage_index < pipe.num_stages:
            return True
        # Final stage: only writeback instructions still require to move
        # (onto the completion bus); everything else completes in place.
        return instruction.needs_writeback and pipe.completion_bus is not None

    def _requests_bus(self, slot: _Slot) -> bool:
        instruction = slot.instruction
        return instruction is not None and instruction.needs_writeback

    def _arbitrate(self, inputs: Mapping[str, bool]) -> Dict[str, Optional[str]]:
        winners: Dict[str, Optional[str]] = {}
        for bus in self.architecture.buses:
            requests = {
                pipe: inputs.get(sig.req_name(pipe), False) for pipe in bus.priority
            }
            winners[bus.name] = self._arbiters[bus.name].grant(requests)
        return winners

    def _grant_signals(self, winners: Mapping[str, Optional[str]]) -> Dict[str, bool]:
        grants: Dict[str, bool] = {}
        for bus in self.architecture.buses:
            winner = winners[bus.name]
            for pipe in bus.priority:
                grants[sig.gnt_name(pipe)] = pipe == winner
        return grants

    def _bus_target_signals(self, winners: Mapping[str, Optional[str]]) -> Dict[str, bool]:
        arch = self.architecture
        targets: Dict[str, bool] = {}
        if arch.scoreboard is None:
            return targets
        for bus in arch.buses:
            winner = winners[bus.name]
            target: Optional[int] = None
            if winner is not None:
                slot = self._slots[(winner, arch.pipe(winner).num_stages)]
                if slot.instruction is not None:
                    target = slot.instruction.dst
            for address in range(arch.scoreboard.num_registers):
                targets[sig.bus_target_indicator(bus.name, address)] = address == target
        return targets

    # -- movement ------------------------------------------------------------------------------

    def _advance(
        self,
        cycle: int,
        program: Program,
        moe: Mapping[str, bool],
        winners: Mapping[str, Optional[str]],
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        arch = self.architecture
        granted_targets = self._granted_targets(winners)
        # Hazards are judged against the scoreboard as the interlock saw it at
        # the start of the cycle; same-cycle cross-pipe issue conflicts are a
        # decoder responsibility outside the paper's flow-control model.
        outstanding_at_sample = (
            set(self.scoreboard.outstanding_registers()) if self.scoreboard else set()
        )

        for pipe in arch.pipes:
            leaving: Dict[int, Instruction] = {}
            vacated: Dict[int, bool] = {}

            # Phase 1: decide, per stage, whether its content departs this cycle.
            for stage_index in range(pipe.num_stages, 0, -1):
                slot = self._slots[(pipe.name, stage_index)]
                instruction = slot.instruction
                key = f"{pipe.name}.{stage_index}"
                if instruction is None:
                    vacated[stage_index] = True
                    continue
                departs, retires, dropped = self._departure(
                    pipe, stage_index, slot, moe, winners, cycle
                )
                vacated[stage_index] = departs or retires or dropped
                if departs:
                    leaving[stage_index] = instruction
                    record.moved.append(key)
                elif retires:
                    instruction.retire_cycle = cycle
                    record.retired.append(instruction.uid)
                    trace.retired_instructions += 1
                    record.moved.append(key)
                    if (
                        self.scoreboard is not None
                        and instruction.dst is not None
                        and instruction.needs_writeback
                    ):
                        # Retirement in place (no completion bus) still releases
                        # the destination register.
                        self.scoreboard.complete(instruction.dst)
                elif dropped:
                    trace.dropped_instructions += 1
                else:
                    record.stalled.append(key)

            # Phase 2: apply completion effects and transfers, deepest stage first.
            for stage_index in range(pipe.num_stages, 0, -1):
                slot = self._slots[(pipe.name, stage_index)]
                instruction = leaving.get(stage_index)
                if vacated.get(stage_index, False):
                    if instruction is not None and stage_index == pipe.num_stages:
                        self._complete(cycle, pipe, instruction, record, trace)
                    slot.clear()
                if instruction is not None and stage_index < pipe.num_stages:
                    self._transfer(
                        cycle, pipe, stage_index, instruction, vacated, record, trace
                    )
                if instruction is not None and stage_index == 1:
                    self._note_issue_hazards(
                        cycle,
                        pipe,
                        instruction,
                        granted_targets,
                        outstanding_at_sample,
                        program,
                        trace,
                    )

            # Phase 3: fetch a new instruction into the (possibly vacated) issue stage.
            self._fetch(cycle, pipe, program, moe, vacated, record, trace)

    def _departure(
        self,
        pipe: PipeSpec,
        stage_index: int,
        slot: _Slot,
        moe: Mapping[str, bool],
        winners: Mapping[str, Optional[str]],
        cycle: int,
    ) -> Tuple[bool, bool, bool]:
        """Classify a stage's occupant this cycle: (moves on, retires in place, dropped)."""
        instruction = slot.instruction
        assert instruction is not None
        moe_value = moe.get(sig.moe_name(pipe.name, stage_index), False)

        if instruction.is_wait:
            if slot.wait_remaining > 1:
                slot.wait_remaining -= 1
                return False, False, False
            return False, True, False

        is_final = stage_index == pipe.num_stages
        if is_final:
            if instruction.needs_writeback and pipe.completion_bus is not None:
                granted = winners.get(pipe.completion_bus) == pipe.name
                if granted and moe_value:
                    return True, False, False
                if moe_value and not granted:
                    # The interlock let the stage be overwritten although the
                    # writeback has not happened: the result is lost as soon as
                    # a predecessor pushes in; dropping is handled by _transfer.
                    return False, False, False
                return False, False, False
            # No writeback needed: the instruction completes in place.
            return False, True, False

        if moe_value:
            return True, False, False
        return False, False, False

    def _complete(
        self,
        cycle: int,
        pipe: PipeSpec,
        instruction: Instruction,
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        """Writeback of a completing instruction: clears its scoreboard entry."""
        instruction.retire_cycle = cycle
        record.retired.append(instruction.uid)
        trace.retired_instructions += 1
        if self.scoreboard is not None and instruction.dst is not None:
            self.scoreboard.complete(instruction.dst)

    def _transfer(
        self,
        cycle: int,
        pipe: PipeSpec,
        stage_index: int,
        instruction: Instruction,
        vacated: Mapping[int, bool],
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        """Move an instruction into the next stage, detecting overwrites."""
        destination = self._slots[(pipe.name, stage_index + 1)]
        if not vacated.get(stage_index + 1, False) and destination.occupied:
            victim = destination.instruction
            trace.dropped_instructions += 1
            trace.hazards.append(
                HazardEvent(
                    cycle=cycle,
                    kind=HazardKind.OVERWRITE,
                    pipe=pipe.name,
                    stage=stage_index + 1,
                    instruction_uid=victim.uid if victim else None,
                    detail=f"overwritten by insn#{instruction.uid}",
                )
            )
        elif (
            stage_index + 1 == pipe.num_stages
            and destination.occupied
            and vacated.get(stage_index + 1, False)
            and destination.instruction is not None
            and destination.instruction.needs_writeback
            and destination.instruction.retire_cycle is None
        ):
            # The completion stage was marked vacated without a grant: the old
            # occupant is displaced before writing back.
            victim = destination.instruction
            trace.dropped_instructions += 1
            trace.hazards.append(
                HazardEvent(
                    cycle=cycle,
                    kind=HazardKind.LOST_WRITEBACK,
                    pipe=pipe.name,
                    stage=stage_index + 1,
                    instruction_uid=victim.uid,
                    detail="displaced from the completion stage without a bus grant",
                )
            )
        destination.instruction = instruction

    def _note_issue_hazards(
        self,
        cycle: int,
        pipe: PipeSpec,
        instruction: Instruction,
        granted_targets: Dict[str, List[int]],
        outstanding_at_sample: set,
        program: Program,
        trace: SimulationTrace,
    ) -> None:
        """Physical hazard checks when an instruction leaves the issue stage."""
        bypass_buses = (
            self.architecture.scoreboard.bypass_buses
            if self.architecture.scoreboard is not None
            else ()
        )
        bypassed = {
            address
            for bus_name in bypass_buses
            for address in granted_targets.get(bus_name, [])
        }

        def hazardous(address: int) -> bool:
            return address in outstanding_at_sample and address not in bypassed

        if self.scoreboard is not None:
            for address in instruction.source_registers():
                if hazardous(address):
                    trace.hazards.append(
                        HazardEvent(
                            cycle=cycle,
                            kind=HazardKind.STALE_OPERAND,
                            pipe=pipe.name,
                            stage=1,
                            instruction_uid=instruction.uid,
                            detail=f"source r{address} outstanding and not bypassed",
                        )
                    )
            for address in instruction.destination_registers():
                if hazardous(address):
                    trace.hazards.append(
                        HazardEvent(
                            cycle=cycle,
                            kind=HazardKind.WAW_VIOLATION,
                            pipe=pipe.name,
                            stage=1,
                            instruction_uid=instruction.uid,
                            detail=f"destination r{address} outstanding and not bypassed",
                        )
                    )
            for address in instruction.destination_registers():
                if instruction.needs_writeback:
                    self.scoreboard.mark_outstanding(address)
        for stall_input in self.architecture.extra_stall_inputs:
            if pipe.name in stall_input.applies_to and program.external_asserted(
                stall_input.signal, cycle
            ):
                trace.hazards.append(
                    HazardEvent(
                        cycle=cycle,
                        kind=HazardKind.ISSUED_DURING_WAIT,
                        pipe=pipe.name,
                        stage=1,
                        instruction_uid=instruction.uid,
                        detail=f"issued while {stall_input.signal} was asserted",
                    )
                )
        instruction.issue_cycle = instruction.issue_cycle or cycle

    def _fetch(
        self,
        cycle: int,
        pipe: PipeSpec,
        program: Program,
        moe: Mapping[str, bool],
        vacated: Mapping[int, bool],
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        """Bring the next instruction of a pipe's stream into its issue stage."""
        issue_slot = self._slots[(pipe.name, 1)]
        if issue_slot.occupied and not vacated.get(1, False):
            return
        if not moe.get(sig.moe_name(pipe.name, 1), False):
            return
        stream = program.stream_for(pipe.name)
        index = self._fetch_index[pipe.name]
        if index >= len(stream):
            return
        instruction = stream[index]
        self._fetch_index[pipe.name] = index + 1
        if instruction.is_bubble:
            return
        issue_slot.instruction = instruction
        issue_slot.wait_remaining = instruction.wait_cycles if instruction.is_wait else 0
        instruction.issue_cycle = cycle
        record.issued.append(instruction.uid)
        trace.issued_instructions += 1

    def _granted_targets(self, winners: Mapping[str, Optional[str]]) -> Dict[str, List[int]]:
        """Register addresses written back this cycle, per bus (for bypassing)."""
        targets: Dict[str, List[int]] = {}
        for bus_name, winner in winners.items():
            addresses: List[int] = []
            if winner is not None:
                slot = self._slots[(winner, self.architecture.pipe(winner).num_stages)]
                if slot.instruction is not None and slot.instruction.dst is not None:
                    addresses.append(slot.instruction.dst)
            targets[bus_name] = addresses
        return targets

    def _check_lockstep(
        self, cycle: int, moe: Mapping[str, bool], trace: SimulationTrace
    ) -> None:
        for group in self.architecture.lockstep_groups:
            values = {
                pipe: moe.get(sig.moe_name(pipe, 1), False) for pipe in group
            }
            if len(set(values.values())) > 1:
                detail = ", ".join(f"{pipe}.1.moe={int(v)}" for pipe, v in values.items())
                trace.hazards.append(
                    HazardEvent(
                        cycle=cycle,
                        kind=HazardKind.LOCKSTEP_BROKEN,
                        pipe="/".join(group),
                        stage=1,
                        detail=detail,
                    )
                )

    # -- bookkeeping ---------------------------------------------------------------------------

    def _occupancy_snapshot(self) -> Dict[str, Optional[int]]:
        return {
            f"{pipe}.{stage}": (slot.instruction.uid if slot.instruction else None)
            for (pipe, stage), slot in self._slots.items()
        }

    def _finished(self, program: Program) -> bool:
        streams_done = all(
            self._fetch_index[pipe.name] >= len(program.stream_for(pipe.name))
            for pipe in self.architecture.pipes
        )
        if not streams_done:
            return False
        if not self.config.drain:
            return True
        return all(not slot.occupied for slot in self._slots.values())


def simulate(
    architecture: Architecture,
    interlock: Interlock,
    program: Program,
    config: Optional[SimulatorConfig] = None,
) -> SimulationTrace:
    """One-call convenience wrapper: build a simulator and run a program."""
    return PipelineSimulator(architecture, interlock, config).run(program)
