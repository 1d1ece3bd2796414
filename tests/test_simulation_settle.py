"""Settled cycles: the simulator repeats a frozen pipeline's cycle instead of stepping it.

Under a :attr:`~repro.pipeline.interlock.Interlock.combinational`
interlock, :meth:`PipelineSimulator.run` stops stepping at a cycle in
which nothing changed and repeats that cycle up to ``max_cycles``.  The
oracle here is the same interlock behind a wrapper that keeps
``combinational`` False, so the simulator steps every cycle; both traces
must agree on every column, hazard and counter, on each instruction's
issue and retire cycles and on the assertion monitor's counts.
"""

from __future__ import annotations

import pytest
from conftest import with_replaced_flag

from repro.archs import load_architecture
from repro.assertions import AssertionKind, AssertionMonitor, testbench_assertions
from repro.expr.ast import FALSE
from repro.faults import FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    PipelineSimulator,
    SimulatorConfig,
    StuckResetInterlock,
)
from repro.pipeline.instructions import Program, wait
from repro.pipeline.interlock import Interlock
from repro.spec import build_functional_spec
from repro.workloads import WorkloadGenerator, WorkloadProfile
from repro.workloads.generators import completion_contention_program

#: The faults stage's simulation settings for a 48-instruction workload.
LENGTH = 48
MAX_CYCLES = LENGTH * 8 + 100


class SteppedInterlock(Interlock):
    """Delegates everything to ``inner`` but is not combinational: never fast-forwarded."""

    def __init__(self, inner: Interlock):
        self.inner = inner
        self.name = inner.name

    def compute_moe(self, inputs):
        return self.inner.compute_moe(inputs)

    def moe_flags(self):
        return self.inner.moe_flags()

    def row_function(self, input_names):
        return self.inner.row_function(input_names)

    def reset(self):
        self.inner.reset()

    def on_cycle_start(self, cycle):
        self.inner.on_cycle_start(cycle)


def _observed(trace, program, monitor):
    report = monitor.check_trace(trace)
    return (
        trace.input_rows,
        trace.moe_rows,
        trace.occupancy_rows,
        trace.issued,
        trace.retired,
        trace.moved,
        trace.stalled,
        trace.hazards,
        trace.issued_instructions,
        trace.retired_instructions,
        trace.dropped_instructions,
        [
            (instruction.uid, instruction.issue_cycle, instruction.retire_cycle)
            for stream in program.streams.values()
            for instruction in stream
        ],
        report.cycles_checked,
        [report.violation_count(kind) for kind in AssertionKind],
        [violation.assertion.name for violation in report.violations],
    )


def _run_both(architecture, spec, interlock, program, config=None):
    """Simulate ``interlock`` as is and stepped; assert equal traces; return the first."""
    config = config or SimulatorConfig(max_cycles=MAX_CYCLES)
    monitor = AssertionMonitor(testbench_assertions(spec))
    fast = PipelineSimulator(architecture, interlock, config).run(program)
    expected = _observed(fast, program, monitor)
    stepped = PipelineSimulator(architecture, SteppedInterlock(interlock), config).run(program)
    assert stepped.stepped_cycles == stepped.num_cycles()
    assert _observed(stepped, program, monitor) == expected
    return fast


def _case(name: str, seed: int = 5):
    architecture = load_architecture(name)
    spec = build_functional_spec(architecture)
    program = WorkloadGenerator(architecture, seed=seed).generate(
        WorkloadProfile(length=LENGTH, dependency_rate=0.5, wait_rate=0.1)
    )
    return architecture, spec, program


def test_interlock_declarations():
    architecture, spec, _ = _case("dac2002-example")
    reference = ClosedFormInterlock.from_spec(spec)
    assert not Interlock.combinational
    assert reference.combinational
    assert not StuckResetInterlock(reference, {}, cycles=1).combinational
    assert not SteppedInterlock(reference).combinational


@pytest.mark.parametrize(
    "name",
    [
        "dac2002-example",
        "fam-r2w1d3s1-bypass",
        "fam-r4w1d5s1-blocking",
        "fam-r4w2d4s1-bypass",
        "fam-r2w2d5s1-blocking-ls-wait",
    ],
)
def test_every_standard_mutant_matches_the_stepped_run(name):
    architecture, spec, program = _case(name)
    cycles = stepped = 0
    for fault in FaultInjector(spec, seed=5).standard_fault_set():
        trace = _run_both(architecture, spec, fault.interlock, program)
        cycles += trace.num_cycles()
        stepped += trace.stepped_cycles
    # The unconditional-stall mutants freeze the pipeline.
    assert stepped < cycles


def test_stuck_at_zero_steps_far_fewer_cycles():
    architecture, spec, program = _case("dac2002-example")
    fault = FaultInjector(spec).stuck_stall_fault("long.1.moe")
    trace = _run_both(architecture, spec, fault.interlock, program)
    assert trace.num_cycles() == MAX_CYCLES
    assert trace.stepped_cycles * 10 < trace.num_cycles()
    # The repeated cycles are the settled cycle's own rows.
    assert trace.moe_rows[-1] is trace.moe_rows[trace.stepped_cycles - 1]


def test_round_robin_with_a_stuck_completion_stage():
    architecture, spec, _ = _case("dac2002-example")
    program = completion_contention_program(architecture, length=LENGTH)
    reference = ClosedFormInterlock.from_spec(spec)
    round_robin = SimulatorConfig(max_cycles=MAX_CYCLES, arbiter="round-robin")

    # One stuck requester: the round-robin pointer stops moving, so the run settles.
    one_stuck = with_replaced_flag(reference, "long.4.moe", FALSE)
    trace = _run_both(architecture, spec, one_stuck, program, round_robin)
    assert trace.stepped_cycles < trace.num_cycles() == MAX_CYCLES

    # Two stuck requesters: the grant alternates, so no cycle repeats the
    # one before it; under fixed priority the same pipeline settles.
    both_stuck = with_replaced_flag(one_stuck, "short.2.moe", FALSE)
    trace = _run_both(architecture, spec, both_stuck, program, round_robin)
    assert trace.stepped_cycles == trace.num_cycles() == MAX_CYCLES
    fixed = _run_both(architecture, spec, both_stuck, program)
    assert fixed.stepped_cycles < fixed.num_cycles() == MAX_CYCLES


def test_a_late_external_stall_is_not_skipped():
    architecture, spec, program = _case("fam-r2w2d5s1-blocking-ls-wait")
    (stall,) = architecture.extra_stall_inputs
    late = MAX_CYCLES - 50
    program.external_inputs = {stall.signal: [late]}
    fault = FaultInjector(spec).stuck_stall_fault("p0.2.moe")
    trace = _run_both(architecture, spec, fault.interlock, program)
    assert trace.stepped_cycles > late
    assert trace.record(late).inputs[stall.signal]
    assert not trace.record(late + 1).inputs[stall.signal]


def test_a_ticking_wait_counter_is_not_settled():
    # Nothing but the WAIT counter changes while the instruction waits.
    architecture, spec, _ = _case("dac2002-example")
    waiting = wait("long", cycles=12)
    program = Program(streams={"long": [waiting]})
    trace = _run_both(architecture, spec, ClosedFormInterlock.from_spec(spec), program)
    assert waiting.retire_cycle == 12
    assert trace.stepped_cycles == trace.num_cycles() == 13


def test_an_interlock_with_memory_is_stepped_every_cycle():
    architecture, spec, program = _case("dac2002-example")
    stuck = FaultInjector(spec).stuck_stall_fault("long.2.moe").interlock
    interlock = StuckResetInterlock(stuck, {"short.1.moe": False}, cycles=4)
    trace = _run_both(architecture, spec, interlock, program)
    assert trace.stepped_cycles == trace.num_cycles() == MAX_CYCLES


@pytest.mark.parametrize(
    "config",
    [
        SimulatorConfig(max_cycles=MAX_CYCLES, drain=False),
        SimulatorConfig(max_cycles=MAX_CYCLES, stop_on_hazard=True),
    ],
    ids=["no-drain", "stop-on-hazard"],
)
def test_drain_and_stop_on_hazard(config):
    architecture, spec, program = _case("fam-r4w2d4s1-bypass")
    injector = FaultInjector(spec, seed=3)
    settled = 0
    for fault in (
        injector.stuck_stall_fault("p0.3.moe"),
        injector.stuck_stall_fault("p1.1.moe"),
        injector.never_stall_fault("p0.1.moe"),
        injector.never_stall_fault("p1.3.moe"),
    ):
        trace = _run_both(architecture, spec, fault.interlock, program, config)
        settled += trace.stepped_cycles < trace.num_cycles()
    assert settled
