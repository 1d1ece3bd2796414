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
from typing import Dict, FrozenSet, List, Mapping, Optional, Set

from . import signals as sig
from .arbitration import Arbiter, make_arbiter
from .instructions import Instruction, InstructionKind, Program
from .interlock import Interlock
from .structure import Architecture, PipeSpec
from .trace import HazardEvent, HazardKind, SimulationTrace


# The per-cycle loop compares instruction kinds directly rather than going
# through the Instruction properties (``needs_writeback`` is ALU, ...).
_ALU = InstructionKind.ALU
_WAIT = InstructionKind.WAIT
_BUBBLE = InstructionKind.BUBBLE


@dataclass
class SimulatorConfig:
    """Simulation options.

    Attributes:
        max_cycles: hard cap on simulated cycles (guards against deadlocked
            interlocks).
        arbiter: completion-bus arbitration scheme, ``"fixed-priority"`` or
            ``"round-robin"``.
    """

    max_cycles: int = 10_000
    arbiter: str = "fixed-priority"


class _PipePlan:
    """The slots and row positions of one pipe, fixed per simulator.

    Built once so the per-cycle loop neither builds
    :class:`~repro.pipeline.structure.StageRef` lists nor formats or looks
    up signal names.  Slots are indexes into the simulator's flat
    occupancy lists and row positions are indexes into the cycle's input
    row (``architecture.input_signals()`` order).  ``stages`` holds
    ``(index, slot, moe name, "pipe.index" key)`` tuples, issue stage
    first; ``upstream`` the ``(slot, rtm position)`` of every stage but
    the last.
    """

    __slots__ = (
        "name",
        "num_stages",
        "writes_back",
        "completion_bus",
        "stages",
        "upstream",
        "issue_slot",
        "completion_slot",
        "completion_rtm",
        "issue_moe",
        "req",
        "src_positions",
        "dst_positions",
        "stall_signals",
    )

    def __init__(
        self,
        pipe: PipeSpec,
        first_slot: int,
        position: Mapping[str, int],
        architecture: Architecture,
    ):
        name = pipe.name
        self.name = name
        self.num_stages = pipe.num_stages
        self.completion_bus = pipe.completion_bus
        # Only pipes on a completion bus write back by moving out of their
        # final stage; elsewhere every instruction completes in place.
        self.writes_back = pipe.completion_bus is not None
        self.stages = tuple(
            (index, first_slot + index - 1, sig.moe_name(name, index), f"{name}.{index}")
            for index in range(1, pipe.num_stages + 1)
        )
        self.upstream = tuple(
            (first_slot + index - 1, position[sig.rtm_name(name, index)])
            for index in range(1, pipe.num_stages)
        )
        self.issue_slot = first_slot
        self.completion_slot = first_slot + pipe.num_stages - 1
        self.completion_rtm = position[sig.rtm_name(name, pipe.num_stages)]
        self.issue_moe = sig.moe_name(name, 1)
        self.req = position[sig.req_name(name)] if self.writes_back else None
        registers = range(architecture.scoreboard.num_registers) if architecture.scoreboard else ()
        self.src_positions = tuple(
            position[sig.stage_regaddr_indicator(name, 1, "src", a)] for a in registers
        )
        self.dst_positions = tuple(
            position[sig.stage_regaddr_indicator(name, 1, "dst", a)] for a in registers
        )
        self.stall_signals = tuple(
            stall_input.signal
            for stall_input in architecture.extra_stall_inputs
            if name in stall_input.applies_to
        )


class PipelineSimulator:
    """Drives a :class:`Program` through an :class:`Architecture` under an interlock.

    :meth:`run` keeps the pipeline state in flat lists — the occupying
    instruction and wait counter of every stage, the scoreboard bits — and
    per cycle fills one input row in ``architecture.input_signals()``
    order, evaluates the interlock on it (:meth:`Interlock.row_function`)
    and appends the input, moe and occupancy rows to a columnar
    :class:`SimulationTrace`.
    """

    def __init__(
        self,
        architecture: Architecture,
        interlock: Interlock,
        config: Optional[SimulatorConfig] = None,
    ):
        self.architecture = architecture
        self.interlock = interlock
        self.config = config or SimulatorConfig()
        self._arbiters: Dict[str, Arbiter] = {
            bus.name: make_arbiter(self.config.arbiter, bus) for bus in architecture.buses
        }
        # The interlock must drive every moe flag the architecture defines;
        # a partial implementation is rejected before the first cycle.
        self._expected_moe = frozenset(architecture.moe_signals())
        self._input_names = tuple(architecture.input_signals())
        position = {name: index for index, name in enumerate(self._input_names)}

        # -- the per-cycle plan: every slot and row position a cycle touches ----------
        pipes = []
        first_slot = 0
        for pipe in architecture.pipes:
            pipes.append(_PipePlan(pipe, first_slot, position, architecture))
            first_slot += pipe.num_stages
        self._pipes = tuple(pipes)
        self._occupancy_names = tuple(key for plan in self._pipes for *_, key in plan.stages)
        issue_slots = {plan.name: plan.issue_slot for plan in self._pipes}
        completion_slots = {plan.name: plan.completion_slot for plan in self._pipes}
        scoreboard = architecture.scoreboard
        registers = range(scoreboard.num_registers) if scoreboard else ()
        self._num_registers = len(registers)
        # The scoreboard bits are one contiguous block of the input row.
        self._scoreboard_start = position[scoreboard.bit_names()[0]] if registers else 0
        assert self._input_names[
            self._scoreboard_start : self._scoreboard_start + len(registers)
        ] == tuple(scoreboard.bit_names() if registers else ())
        # (bus name, arbiter, ((pipe, req position, gnt position, completion slot), ...),
        #  target indicator positions)
        self._buses = tuple(
            (
                bus.name,
                self._arbiters[bus.name],
                tuple(
                    (
                        pipe,
                        position[sig.req_name(pipe)],
                        position[sig.gnt_name(pipe)],
                        completion_slots[pipe],
                    )
                    for pipe in bus.priority
                ),
                tuple(position[sig.bus_target_indicator(bus.name, a)] for a in registers),
            )
            for bus in architecture.buses
        )
        self._bypass_buses = frozenset(scoreboard.bypass_buses if scoreboard else ())
        # (signal, row position, issue slots of the pipes whose WAIT instructions assert it)
        self._stall_inputs = tuple(
            (
                stall_input.signal,
                position[stall_input.signal],
                tuple(issue_slots[pipe] for pipe in stall_input.applies_to),
            )
            for stall_input in architecture.extra_stall_inputs
        )
        # (pipes, their stage-1 moe names, "a/b" hazard label) per lock-step group
        self._lockstep = tuple(
            (tuple(group), tuple(sig.moe_name(pipe, 1) for pipe in group), "/".join(group))
            for group in architecture.lockstep_groups
        )

    # -- public API -------------------------------------------------------------------

    def run(self, program: Program) -> SimulationTrace:
        """Simulate a whole program and return its columnar trace.

        The run starts from an empty pipeline, a clear scoreboard, reset
        arbiters and a reset interlock, and clears the issue and retire
        cycles of the program's instructions, so a program gives the same
        trace however often it is run.  It lasts until every instruction
        has been fetched and the pipeline is empty, or ``max_cycles``.

        A run under a :attr:`~Interlock.combinational` interlock stops
        stepping at a settled cycle — one in which nothing moved, retired,
        was fetched or ticked a WAIT counter, no hazard was raised, no
        arbiter changed state and no external stall is asserted from then
        on.  Every later cycle would repeat it exactly, so the trace
        repeats it up to ``max_cycles`` (:meth:`SimulationTrace.repeat_last_cycle`)
        and :attr:`SimulationTrace.stepped_cycles` counts the cycles stepped.
        """
        interlock = self.interlock
        moe_names, evaluate = interlock.row_function(self._input_names)
        missing = self._expected_moe.difference(moe_names)
        if missing:
            raise RuntimeError(
                f"interlock {interlock.name!r} did not drive moe flags {sorted(missing)}"
            )
        moe_at = {name: index for index, name in enumerate(moe_names)}
        trace = SimulationTrace(
            architecture_name=self.architecture.name,
            interlock_name=interlock.name,
            input_names=self._input_names,
            moe_names=moe_names,
            occupancy_names=self._occupancy_names,
        )
        for arbiter in self._arbiters.values():
            arbiter.reset()
        interlock.reset()

        pipes = self._pipes
        buses = self._buses
        stall_inputs = self._stall_inputs
        bypass_buses = self._bypass_buses
        streams = [program.stream_for(plan.name) for plan in pipes]
        for stream in streams:
            for instruction in stream:
                instruction.issue_cycle = None
                instruction.retire_cycle = None
        asserted = {
            signal: frozenset(program.external_inputs.get(signal, ()))
            for signal, _, _ in stall_inputs
        }
        # Per pipe: the plan, its stream, the issue stage's moe position and
        # the (index, slot, moe position, key) of its stages, deepest first.
        runs = [
            (
                plan,
                stream,
                moe_at[plan.issue_moe],
                tuple(
                    (index, slot, moe_at[moe_name], key)
                    for index, slot, moe_name, key in reversed(plan.stages)
                ),
            )
            for plan, stream in zip(pipes, streams)
        ]
        lockstep = tuple(
            (members, tuple(moe_at[name] for name in names), label)
            for members, names, label in self._lockstep
        )

        num_slots = len(self._occupancy_names)
        num_inputs = len(self._input_names)
        occupant: List[Optional[Instruction]] = [None] * num_slots
        occupant_uid: List[Optional[int]] = [None] * num_slots
        wait_remaining = [0] * num_slots
        fetched = [0] * len(pipes)
        unfetched = sum(len(stream) for stream in streams)
        num_registers = self._num_registers
        scoreboard = [False] * num_registers
        scoreboard_start = self._scoreboard_start
        scoreboard_end = scoreboard_start + num_registers
        hazards = trace.hazards
        max_cycles = self.config.max_cycles
        combinational = interlock.combinational
        # A cycle at or before the last asserted external stall never settles.
        last_asserted = max(
            (stall_cycle for cycles in asserted.values() for stall_cycle in cycles), default=-1
        )

        for cycle in range(max_cycles):
            if not unfetched and occupant_uid.count(None) == num_slots:
                break
            interlock.on_cycle_start(cycle)
            unfetched_at_start = unfetched
            hazards_at_start = len(hazards)
            ticked = False

            # -- sample the interlock inputs ------------------------------------------
            row = [False] * num_inputs
            for plan in pipes:
                # Bubbles never enter a stage (fetch skips them).
                for slot, rtm in plan.upstream:
                    instruction = occupant[slot]
                    if instruction is not None and instruction.kind is not _WAIT:
                        row[rtm] = True
                if plan.writes_back:
                    # Final stage: only writeback instructions still require
                    # to move (onto the completion bus); everything else
                    # completes in place.
                    instruction = occupant[plan.completion_slot]
                    if instruction is not None and instruction.kind is _ALU:
                        row[plan.completion_rtm] = True
                        row[plan.req] = True
            if num_registers:
                row[scoreboard_start:scoreboard_end] = scoreboard
                for plan in pipes:
                    instruction = occupant[plan.issue_slot]
                    if instruction is None:
                        continue
                    if instruction.src is not None and 0 <= instruction.src < num_registers:
                        row[plan.src_positions[instruction.src]] = True
                    if instruction.dst is not None and 0 <= instruction.dst < num_registers:
                        row[plan.dst_positions[instruction.dst]] = True
            for signal, where, issue_slots in stall_inputs:
                if cycle in asserted[signal]:
                    row[where] = True
                    continue
                for slot in issue_slots:
                    instruction = occupant[slot]
                    if (
                        instruction is not None
                        and instruction.kind is _WAIT
                        and wait_remaining[slot] > 0
                    ):
                        row[where] = True
                        break

            # -- arbitrate the completion buses ---------------------------------------
            winners: Dict[str, Optional[str]] = {}
            bypassed = set()
            arbiters_kept_state = True
            for bus_name, arbiter, requesters, targets in buses:
                arbiter_state = arbiter.state()
                winner = arbiter.grant(
                    {pipe: row[req] for pipe, req, _, _ in requesters}
                )
                if arbiter.state() != arbiter_state:
                    arbiters_kept_state = False
                winners[bus_name] = winner
                for pipe, _, gnt, completion_slot in requesters:
                    if pipe != winner:
                        continue
                    row[gnt] = True
                    instruction = occupant[completion_slot]
                    target = instruction.dst if instruction is not None else None
                    if target is not None and 0 <= target < num_registers:
                        row[targets[target]] = True
                        if bus_name in bypass_buses:
                            bypassed.add(target)

            moe = evaluate(row)
            trace.input_rows.append(row)
            trace.moe_rows.append(moe)
            trace.occupancy_rows.append(occupant_uid[:])
            issued: List[int] = []
            retired: List[int] = []
            moved: List[str] = []
            stalled: List[str] = []
            trace.issued.append(issued)
            trace.retired.append(retired)
            trace.moved.append(moved)
            trace.stalled.append(stalled)

            for members, positions, label in lockstep:
                if len({moe[where] for where in positions}) > 1:
                    hazards.append(
                        HazardEvent(
                            cycle=cycle,
                            kind=HazardKind.LOCKSTEP_BROKEN,
                            pipe=label,
                            stage=1,
                            detail=", ".join(
                                f"{pipe}.1.moe={int(moe[where])}"
                                for pipe, where in zip(members, positions)
                            ),
                        )
                    )

            # -- advance every pipe -------------------------------------------------
            # Hazards are judged against the scoreboard as the interlock saw
            # it at the start of the cycle; same-cycle cross-pipe issue
            # conflicts are a decoder responsibility outside the paper's
            # flow-control model.
            outstanding_at_sample = scoreboard[:]
            for pipe_index, (plan, stream, issue_moe, deepest_first) in enumerate(runs):
                last = plan.num_stages
                leaving: List[Optional[Instruction]] = [None] * (last + 1)
                # vacated[i] for stage i (1-based); phase 1 fills every stage.
                vacated = [False] * (last + 1)

                # Phase 1: decide, per stage, whether its content departs.
                for index, slot, moe_position, key in deepest_first:
                    instruction = occupant[slot]
                    if instruction is None:
                        vacated[index] = True
                        continue
                    kind = instruction.kind
                    if kind is _WAIT:
                        if wait_remaining[slot] > 1:
                            wait_remaining[slot] -= 1
                            ticked = True
                            departs = retires = False
                        else:
                            departs, retires = False, True
                    elif index < last:
                        departs, retires = moe[moe_position], False
                    elif plan.writes_back and kind is _ALU:
                        # Without a grant the result stays put: if the
                        # interlock still let the stage be overwritten, the
                        # transfer below reports the lost instruction.
                        departs = winners[plan.completion_bus] == plan.name and moe[moe_position]
                        retires = False
                    else:
                        # No writeback needed: the instruction completes in place.
                        departs, retires = False, True
                    vacated[index] = departs or retires
                    if departs:
                        leaving[index] = instruction
                        moved.append(key)
                    elif retires:
                        instruction.retire_cycle = cycle
                        retired.append(instruction.uid)
                        trace.retired_instructions += 1
                        moved.append(key)
                        if (
                            num_registers
                            and instruction.dst is not None
                            and kind is _ALU
                        ):
                            # Retirement in place (no completion bus) still
                            # releases the destination register.
                            scoreboard[instruction.dst] = False
                    else:
                        stalled.append(key)

                # Phase 2: completion effects and transfers, deepest stage first.
                for index, slot, _, _ in deepest_first:
                    instruction = leaving[index]
                    if vacated[index]:
                        if instruction is not None and index == last:
                            # Writeback: clears the scoreboard entry.
                            instruction.retire_cycle = cycle
                            retired.append(instruction.uid)
                            trace.retired_instructions += 1
                            if num_registers and instruction.dst is not None:
                                scoreboard[instruction.dst] = False
                        occupant[slot] = occupant_uid[slot] = None
                        wait_remaining[slot] = 0
                    if instruction is None:
                        continue
                    if index < last:
                        # Move into the next stage, detecting overwrites.  A
                        # vacated stage was cleared above (deepest first), so
                        # an occupant still there was not let go.
                        target = index + 1
                        victim = occupant[slot + 1]
                        if victim is not None:
                            trace.dropped_instructions += 1
                            hazards.append(
                                HazardEvent(
                                    cycle=cycle,
                                    kind=HazardKind.OVERWRITE,
                                    pipe=plan.name,
                                    stage=target,
                                    instruction_uid=victim.uid,
                                    detail=f"overwritten by insn#{instruction.uid}",
                                )
                            )
                        occupant[slot + 1] = instruction
                        occupant_uid[slot + 1] = instruction.uid
                    if index == 1:
                        self._note_issue_hazards(
                            cycle,
                            plan,
                            instruction,
                            scoreboard,
                            outstanding_at_sample,
                            bypassed,
                            asserted,
                            hazards,
                        )

                # Phase 3: fetch into the (possibly vacated) issue stage.
                slot = plan.issue_slot
                if occupant[slot] is not None and not vacated[1]:
                    continue
                if not moe[issue_moe]:
                    continue
                next_index = fetched[pipe_index]
                if next_index >= len(stream):
                    continue
                instruction = stream[next_index]
                fetched[pipe_index] = next_index + 1
                unfetched -= 1
                if instruction.kind is _BUBBLE:
                    continue
                occupant[slot] = instruction
                occupant_uid[slot] = instruction.uid
                wait_remaining[slot] = instruction.wait_cycles if instruction.kind is _WAIT else 0
                instruction.issue_cycle = cycle
                issued.append(instruction.uid)
                trace.issued_instructions += 1

            if (
                combinational
                and not moved
                and unfetched == unfetched_at_start
                and not ticked
                and len(hazards) == hazards_at_start
                and arbiters_kept_state
                and cycle > last_asserted
            ):
                # Settled: nothing changed, so the next cycle starts from
                # this cycle's state, samples the same row and gets the same
                # moe flags from a combinational interlock — and so does
                # every cycle after it, up to the cap.
                trace.repeat_last_cycle(max_cycles - cycle - 1)
                break
        return trace

    def _note_issue_hazards(
        self,
        cycle: int,
        plan: _PipePlan,
        instruction: Instruction,
        scoreboard: List[bool],
        outstanding_at_sample: List[bool],
        bypassed: Set[int],
        asserted: Mapping[str, FrozenSet[int]],
        hazards: List[HazardEvent],
    ) -> None:
        """Physical hazard checks when an instruction leaves the issue stage."""
        num_registers = self._num_registers
        if num_registers:

            def hazardous(address: int) -> bool:
                return (
                    0 <= address < num_registers
                    and outstanding_at_sample[address]
                    and address not in bypassed
                )

            if instruction.src is not None and hazardous(instruction.src):
                hazards.append(
                    HazardEvent(
                        cycle=cycle,
                        kind=HazardKind.STALE_OPERAND,
                        pipe=plan.name,
                        stage=1,
                        instruction_uid=instruction.uid,
                        detail=f"source r{instruction.src} outstanding and not bypassed",
                    )
                )
            address = instruction.dst
            if address is not None:
                if hazardous(address):
                    hazards.append(
                        HazardEvent(
                            cycle=cycle,
                            kind=HazardKind.WAW_VIOLATION,
                            pipe=plan.name,
                            stage=1,
                            instruction_uid=instruction.uid,
                            detail=f"destination r{address} outstanding and not bypassed",
                        )
                    )
                if instruction.needs_writeback:
                    if not 0 <= address < num_registers:
                        raise IndexError(
                            f"register address {address} out of range 0..{num_registers - 1}"
                        )
                    scoreboard[address] = True
        for signal in plan.stall_signals:
            if cycle in asserted[signal]:
                hazards.append(
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


def simulate(
    architecture: Architecture,
    interlock: Interlock,
    program: Program,
    config: Optional[SimulatorConfig] = None,
) -> SimulationTrace:
    """One-call convenience wrapper: build a simulator and run a program."""
    return PipelineSimulator(architecture, interlock, config).run(program)
