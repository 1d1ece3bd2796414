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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from . import signals as sig
from .arbitration import Arbiter, make_arbiter
from .instructions import Instruction, Program
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


class _PipePlan:
    """The names and slots of one pipe the simulator reads every cycle.

    Built once per simulator so the per-cycle loop neither builds
    :class:`~repro.pipeline.structure.StageRef` lists nor formats signal
    names.  ``stages`` holds ``(index, slot, rtm name, moe name, "pipe.index"
    key)`` tuples, issue stage first; ``deepest_first`` is the same tuple
    reversed.
    """

    __slots__ = (
        "name",
        "num_stages",
        "completion_bus",
        "stages",
        "deepest_first",
        "issue_slot",
        "completion_slot",
        "issue_moe",
        "req",
        "src_names",
        "dst_names",
        "stall_signals",
    )

    def __init__(
        self, pipe: PipeSpec, slots: Mapping[Tuple[str, int], _Slot], architecture: Architecture
    ):
        name = pipe.name
        self.name = name
        self.num_stages = pipe.num_stages
        self.completion_bus = pipe.completion_bus
        self.stages = tuple(
            (
                index,
                slots[(name, index)],
                sig.rtm_name(name, index),
                sig.moe_name(name, index),
                f"{name}.{index}",
            )
            for index in range(1, pipe.num_stages + 1)
        )
        self.deepest_first = self.stages[::-1]
        self.issue_slot = slots[(name, 1)]
        self.completion_slot = slots[(name, pipe.num_stages)]
        self.issue_moe = sig.moe_name(name, 1)
        self.req = sig.req_name(name) if pipe.completion_bus is not None else None
        registers = range(architecture.scoreboard.num_registers) if architecture.scoreboard else ()
        self.src_names = tuple(sig.stage_regaddr_indicator(name, 1, "src", a) for a in registers)
        self.dst_names = tuple(sig.stage_regaddr_indicator(name, 1, "dst", a) for a in registers)
        self.stall_signals = tuple(
            stall_input.signal
            for stall_input in architecture.extra_stall_inputs
            if name in stall_input.applies_to
        )


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
        self._expected_moe = frozenset(architecture.moe_signals())
        self._input_signals = tuple(architecture.input_signals())

        # -- the per-cycle plan: every name and slot a cycle touches --------------------
        self._pipes = tuple(
            _PipePlan(pipe, self._slots, architecture) for pipe in architecture.pipes
        )
        self._completion_slots = {plan.name: plan.completion_slot for plan in self._pipes}
        registers = range(architecture.scoreboard.num_registers) if architecture.scoreboard else ()
        # (bus name, arbiter, ((pipe, req name, gnt name), ...), target indicator names)
        self._buses = tuple(
            (
                bus.name,
                self._arbiters[bus.name],
                tuple((pipe, sig.req_name(pipe), sig.gnt_name(pipe)) for pipe in bus.priority),
                tuple(sig.bus_target_indicator(bus.name, address) for address in registers),
            )
            for bus in architecture.buses
        )
        self._bypass_buses = (
            architecture.scoreboard.bypass_buses if architecture.scoreboard else ()
        )
        # (signal, issue slots of the pipes whose WAIT instructions assert it)
        self._stall_inputs = tuple(
            (
                stall_input.signal,
                tuple(self._slots[(pipe, 1)] for pipe in stall_input.applies_to),
            )
            for stall_input in architecture.extra_stall_inputs
        )
        # (((pipe, stage-1 moe name), ...), "a/b" hazard label) per lock-step group
        self._lockstep = tuple(
            (tuple((pipe, sig.moe_name(pipe, 1)) for pipe in group), "/".join(group))
            for group in architecture.lockstep_groups
        )
        self._occupancy_keys = tuple(
            (f"{pipe}.{stage}", slot) for (pipe, stage), slot in self._slots.items()
        )
        # Per-program tables, bound when a run starts (see _bind).
        self._program: Optional[Program] = None
        self._streams: Dict[str, List[Instruction]] = {}
        self._asserted: Dict[str, frozenset] = {}

    # -- public API -------------------------------------------------------------------

    def run(self, program: Program) -> SimulationTrace:
        """Simulate a whole program and return the trace."""
        self.reset()
        self._bind(program)
        trace = SimulationTrace(
            architecture_name=self.architecture.name,
            interlock_name=self.interlock.name,
        )
        for cycle in range(self.config.max_cycles):
            if self._finished():
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
        if program is not self._program:
            self._bind(program)
        self.interlock.on_cycle_start(cycle)

        inputs = self._sample_inputs(cycle)
        grants = self._arbitrate(inputs)
        self._grant_signals(grants, inputs)
        self._bus_target_signals(grants, inputs)

        moe = dict(self.interlock.compute_moe(inputs))
        if not moe.keys() >= self._expected_moe:
            missing = self._expected_moe.difference(moe)
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
        self._advance(cycle, moe, grants, record, trace)
        return record

    def _bind(self, program: Program) -> None:
        """Look up the program's streams and external waveforms once per run."""
        self._program = program
        self._streams = {plan.name: program.stream_for(plan.name) for plan in self._pipes}
        self._asserted = {
            signal: frozenset(program.external_inputs.get(signal, ()))
            for signal, _ in self._stall_inputs
        }

    # -- input sampling -----------------------------------------------------------------------

    def _sample_inputs(self, cycle: int) -> Dict[str, bool]:
        inputs: Dict[str, bool] = dict.fromkeys(self._input_signals, False)

        for plan in self._pipes:
            last = plan.num_stages
            for index, slot, rtm, _, _ in plan.stages:
                instruction = slot.instruction
                if instruction is None or instruction.is_bubble or instruction.is_wait:
                    inputs[rtm] = False
                elif index < last:
                    inputs[rtm] = True
                else:
                    # Final stage: only writeback instructions still require to
                    # move (onto the completion bus); everything else completes
                    # in place.
                    inputs[rtm] = (
                        instruction.needs_writeback and plan.completion_bus is not None
                    )
            if plan.req is not None:
                instruction = plan.completion_slot.instruction
                inputs[plan.req] = instruction is not None and instruction.needs_writeback

        if self.scoreboard is not None:
            inputs.update(self.scoreboard.as_signals())
            for plan in self._pipes:
                instruction = plan.issue_slot.instruction
                src = instruction.src if instruction else None
                dst = instruction.dst if instruction else None
                for candidate, name in enumerate(plan.src_names):
                    inputs[name] = src == candidate
                for candidate, name in enumerate(plan.dst_names):
                    inputs[name] = dst == candidate

        for signal, issue_slots in self._stall_inputs:
            asserted = cycle in self._asserted[signal]
            for issue_slot in issue_slots:
                instruction = issue_slot.instruction
                if (
                    instruction is not None
                    and instruction.is_wait
                    and issue_slot.wait_remaining > 0
                ):
                    asserted = True
            inputs[signal] = asserted
        return inputs

    def _arbitrate(self, inputs: Mapping[str, bool]) -> Dict[str, Optional[str]]:
        winners: Dict[str, Optional[str]] = {}
        for bus_name, arbiter, pipes, _ in self._buses:
            requests = {pipe: inputs.get(req, False) for pipe, req, _ in pipes}
            winners[bus_name] = arbiter.grant(requests)
        return winners

    def _grant_signals(
        self, winners: Mapping[str, Optional[str]], inputs: Dict[str, bool]
    ) -> None:
        for bus_name, _, pipes, _ in self._buses:
            winner = winners[bus_name]
            for pipe, _, gnt in pipes:
                inputs[gnt] = pipe == winner

    def _bus_target_signals(
        self, winners: Mapping[str, Optional[str]], inputs: Dict[str, bool]
    ) -> None:
        if self.scoreboard is None:
            return
        for bus_name, _, _, target_names in self._buses:
            winner = winners[bus_name]
            target: Optional[int] = None
            if winner is not None:
                instruction = self._completion_slots[winner].instruction
                if instruction is not None:
                    target = instruction.dst
            for address, name in enumerate(target_names):
                inputs[name] = address == target

    # -- movement ------------------------------------------------------------------------------

    def _advance(
        self,
        cycle: int,
        moe: Mapping[str, bool],
        winners: Mapping[str, Optional[str]],
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        granted_targets = self._granted_targets(winners)
        # Hazards are judged against the scoreboard as the interlock saw it at
        # the start of the cycle; same-cycle cross-pipe issue conflicts are a
        # decoder responsibility outside the paper's flow-control model.
        outstanding_at_sample = (
            set(self.scoreboard.outstanding_registers()) if self.scoreboard else set()
        )

        for plan in self._pipes:
            last = plan.num_stages
            leaving: Dict[int, Instruction] = {}
            # vacated[i] for stage i (1-based); phase 1 fills every stage.
            vacated = [False] * (last + 1)

            # Phase 1: decide, per stage, whether its content departs this cycle.
            for index, slot, _, moe_name, key in plan.deepest_first:
                instruction = slot.instruction
                if instruction is None:
                    vacated[index] = True
                    continue
                departs, retires = self._departure(
                    plan, index, slot, moe.get(moe_name, False), winners
                )
                vacated[index] = departs or retires
                if departs:
                    leaving[index] = instruction
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
                else:
                    record.stalled.append(key)

            # Phase 2: apply completion effects and transfers, deepest stage first.
            for index, slot, _, _, _ in plan.deepest_first:
                instruction = leaving.get(index)
                if vacated[index]:
                    if instruction is not None and index == last:
                        self._complete(cycle, instruction, record, trace)
                    slot.clear()
                if instruction is not None and index < last:
                    self._transfer(cycle, plan, index, instruction, vacated, trace)
                if instruction is not None and index == 1:
                    self._note_issue_hazards(
                        cycle,
                        plan,
                        instruction,
                        granted_targets,
                        outstanding_at_sample,
                        trace,
                    )

            # Phase 3: fetch a new instruction into the (possibly vacated) issue stage.
            self._fetch(cycle, plan, moe, vacated, record, trace)

    def _departure(
        self,
        plan: _PipePlan,
        stage_index: int,
        slot: _Slot,
        moe_value: bool,
        winners: Mapping[str, Optional[str]],
    ) -> Tuple[bool, bool]:
        """Classify a stage's occupant this cycle: (moves on, retires in place)."""
        instruction = slot.instruction
        assert instruction is not None

        if instruction.is_wait:
            if slot.wait_remaining > 1:
                slot.wait_remaining -= 1
                return False, False
            return False, True

        if stage_index == plan.num_stages:
            if instruction.needs_writeback and plan.completion_bus is not None:
                # Without a grant the result stays put: if the interlock
                # still let the stage be overwritten, _transfer reports the
                # lost writeback when a predecessor pushes in.
                granted = winners.get(plan.completion_bus) == plan.name
                return granted and moe_value, False
            # No writeback needed: the instruction completes in place.
            return False, True

        return moe_value, False

    def _complete(
        self,
        cycle: int,
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
        plan: _PipePlan,
        stage_index: int,
        instruction: Instruction,
        vacated: List[bool],
        trace: SimulationTrace,
    ) -> None:
        """Move an instruction into the next stage, detecting overwrites."""
        target = stage_index + 1
        destination = plan.stages[stage_index][1]
        victim = destination.instruction
        if not vacated[target] and victim is not None:
            trace.dropped_instructions += 1
            trace.hazards.append(
                HazardEvent(
                    cycle=cycle,
                    kind=HazardKind.OVERWRITE,
                    pipe=plan.name,
                    stage=target,
                    instruction_uid=victim.uid,
                    detail=f"overwritten by insn#{instruction.uid}",
                )
            )
        elif (
            target == plan.num_stages
            and vacated[target]
            and victim is not None
            and victim.needs_writeback
            and victim.retire_cycle is None
        ):
            # The completion stage was marked vacated without a grant: the old
            # occupant is displaced before writing back.
            trace.dropped_instructions += 1
            trace.hazards.append(
                HazardEvent(
                    cycle=cycle,
                    kind=HazardKind.LOST_WRITEBACK,
                    pipe=plan.name,
                    stage=target,
                    instruction_uid=victim.uid,
                    detail="displaced from the completion stage without a bus grant",
                )
            )
        destination.instruction = instruction

    def _note_issue_hazards(
        self,
        cycle: int,
        plan: _PipePlan,
        instruction: Instruction,
        granted_targets: Dict[str, List[int]],
        outstanding_at_sample: set,
        trace: SimulationTrace,
    ) -> None:
        """Physical hazard checks when an instruction leaves the issue stage."""
        if self.scoreboard is not None:
            bypassed = {
                address
                for bus_name in self._bypass_buses
                for address in granted_targets.get(bus_name, [])
            }

            def hazardous(address: int) -> bool:
                return address in outstanding_at_sample and address not in bypassed

            for address in instruction.source_registers():
                if hazardous(address):
                    trace.hazards.append(
                        HazardEvent(
                            cycle=cycle,
                            kind=HazardKind.STALE_OPERAND,
                            pipe=plan.name,
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
                            pipe=plan.name,
                            stage=1,
                            instruction_uid=instruction.uid,
                            detail=f"destination r{address} outstanding and not bypassed",
                        )
                    )
            for address in instruction.destination_registers():
                if instruction.needs_writeback:
                    self.scoreboard.mark_outstanding(address)
        for signal in plan.stall_signals:
            if cycle in self._asserted[signal]:
                trace.hazards.append(
                    HazardEvent(
                        cycle=cycle,
                        kind=HazardKind.ISSUED_DURING_WAIT,
                        pipe=plan.name,
                        stage=1,
                        instruction_uid=instruction.uid,
                        detail=f"issued while {signal} was asserted",
                    )
                )
        if instruction.issue_cycle is None:
            instruction.issue_cycle = cycle

    def _fetch(
        self,
        cycle: int,
        plan: _PipePlan,
        moe: Mapping[str, bool],
        vacated: List[bool],
        record: CycleRecord,
        trace: SimulationTrace,
    ) -> None:
        """Bring the next instruction of a pipe's stream into its issue stage."""
        issue_slot = plan.issue_slot
        if issue_slot.occupied and not vacated[1]:
            return
        if not moe.get(plan.issue_moe, False):
            return
        stream = self._streams[plan.name]
        index = self._fetch_index[plan.name]
        if index >= len(stream):
            return
        instruction = stream[index]
        self._fetch_index[plan.name] = index + 1
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
                instruction = self._completion_slots[winner].instruction
                if instruction is not None and instruction.dst is not None:
                    addresses.append(instruction.dst)
            targets[bus_name] = addresses
        return targets

    def _check_lockstep(
        self, cycle: int, moe: Mapping[str, bool], trace: SimulationTrace
    ) -> None:
        for members, label in self._lockstep:
            values = {pipe: moe.get(name, False) for pipe, name in members}
            if len(set(values.values())) > 1:
                detail = ", ".join(f"{pipe}.1.moe={int(v)}" for pipe, v in values.items())
                trace.hazards.append(
                    HazardEvent(
                        cycle=cycle,
                        kind=HazardKind.LOCKSTEP_BROKEN,
                        pipe=label,
                        stage=1,
                        detail=detail,
                    )
                )

    # -- bookkeeping ---------------------------------------------------------------------------

    def _occupancy_snapshot(self) -> Dict[str, Optional[int]]:
        return {
            key: (slot.instruction.uid if slot.instruction else None)
            for key, slot in self._occupancy_keys
        }

    def _finished(self) -> bool:
        fetch_index = self._fetch_index
        for name, stream in self._streams.items():
            if fetch_index[name] < len(stream):
                return False
        if not self.config.drain:
            return True
        return all(slot.instruction is None for _, slot in self._occupancy_keys)


def simulate(
    architecture: Architecture,
    interlock: Interlock,
    program: Program,
    config: Optional[SimulatorConfig] = None,
) -> SimulationTrace:
    """One-call convenience wrapper: build a simulator and run a program."""
    return PipelineSimulator(architecture, interlock, config).run(program)
