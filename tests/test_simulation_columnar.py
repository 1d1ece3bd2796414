"""The columnar simulation trace and the row-evaluated interlocks.

A simulated :class:`~repro.pipeline.trace.SimulationTrace` keeps per-cycle
rows and builds :class:`~repro.pipeline.trace.CycleRecord` objects only
when they are read; the assertion monitor keeps failure words and builds
:class:`~repro.assertions.monitor.AssertionViolation` objects only when
they are read.  These tests pin that every bulk reader sees the same thing
on the rows as on the records, that every interlock's row function agrees
with its ``compute_moe``, that a program's trace does not depend on
earlier runs of it, and that the faults stage builds no records at all.
"""

from __future__ import annotations

import random

import pytest
from test_pipeline_interlock_simulator import EvalExprInterlock
from test_simulator_golden import GOLDEN, MIXED, _digest, _family_case, _program

from repro.analysis import classify_stalls, coverage_of
from repro.archs import load_architecture
from repro.assertions import AssertionKind, AssertionMonitor, testbench_assertions
from repro.assertions.monitor import AssertionViolation
from repro.campaign import JobSpec, clear_warm_state, run_verification_job
from repro.faults import FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    PipelineSimulator,
    SpecFixedPointInterlock,
    StuckResetInterlock,
    simulate,
)
from repro.pipeline.interlock import Interlock
from repro.pipeline.trace import CycleRecord, SimulationTrace
from repro.spec import build_functional_spec
from repro.synth.synthesize import NetlistInterlock, synthesize_interlock
from repro.workloads import WorkloadGenerator, WorkloadProfile


def _hazardous_case():
    architecture = load_architecture("fam-r4w2d4s1-bypass")
    spec = build_functional_spec(architecture)
    fault = FaultInjector(spec, seed=2).never_stall_fault("p0.1.moe")
    return spec, simulate(architecture, fault.interlock, _program(architecture, 8, MIXED))


def _slow_case():
    architecture = load_architecture("fam-r4w2d4s1-bypass")
    spec = build_functional_spec(architecture)
    fault = FaultInjector(spec, seed=2).extra_stall_fault("p1.2.moe")
    return spec, simulate(architecture, fault.interlock, _program(architecture, 9, MIXED))


def _cases():
    for name in sorted(GOLDEN):
        arguments, _ = GOLDEN[name]
        spec = build_functional_spec(load_architecture(arguments[0]))
        yield name, spec, _family_case(*arguments)
    yield "hazardous-mutant", *_hazardous_case()
    yield "performance-mutant", *_slow_case()


CASES = list(_cases())


def _as_records(trace: SimulationTrace) -> SimulationTrace:
    return SimulationTrace(
        architecture_name=trace.architecture_name,
        interlock_name=trace.interlock_name,
        cycles=list(trace.cycles),
    )


@pytest.mark.parametrize("name, spec, trace", CASES, ids=[case[0] for case in CASES])
class TestColumnarMatchesRecords:
    def test_records_are_built_from_the_rows(self, name, spec, trace):
        assert trace.num_cycles() == len(trace.cycles)
        for index in (0, trace.num_cycles() // 2, trace.num_cycles() - 1):
            assert trace.record(index) == trace.cycles[index]
        first = trace.cycles[0]
        assert list(first.inputs) == list(trace.input_names)
        assert list(first.moe) == list(trace.moe_names)
        assert all(type(value) is bool for value in first.inputs.values())
        assert all(type(value) is bool for value in first.moe.values())

    def test_packed_columns(self, name, spec, trace):
        records = _as_records(trace)
        names = list(trace.moe_names) + list(trace.input_names)
        assert trace.pack_signal_columns(names) == records.pack_signal_columns(names)
        defaults = {"never.sampled": True, trace.moe_names[0]: False}
        with_defaults = names[:3] + list(defaults)
        assert trace.pack_signal_columns(with_defaults, defaults) == records.pack_signal_columns(
            with_defaults, defaults
        )
        for packed in (trace, records):
            with pytest.raises(KeyError, match="never.sampled"):
                packed.pack_signal_columns(names[:2] + ["never.sampled"])

    def test_monitor_counts_and_order(self, name, spec, trace):
        monitor = AssertionMonitor(testbench_assertions(spec))
        columnar = monitor.check_trace(trace)
        from_records = monitor.check_trace(_as_records(trace))
        per_cycle = [
            violation
            for record in trace.cycles
            for violation in monitor.check_record(record)
        ]
        assert columnar.violations == from_records.violations == per_cycle
        for kind in (None, *AssertionKind):
            expected = sum(
                1 for v in columnar.violations if kind is None or v.assertion.kind is kind
            )
            assert columnar.violation_count(kind) == expected
            assert from_records.violation_count(kind) == expected
        assert columnar.clean() == (not per_cycle)
        if name in ("hazardous-mutant", "performance-mutant"):
            assert per_cycle, "a mutant must fire some assertion"

    def test_stalls_and_coverage(self, name, spec, trace):
        records = _as_records(trace)
        columnar = classify_stalls(trace, spec)
        hand_built = classify_stalls(records, spec)
        for moe, stats in columnar.per_stage.items():
            other = hand_built.per_stage[moe]
            assert stats.unnecessary_cycles == other.unnecessary_cycles
            assert stats.stall_cycles == other.stall_cycles
        if name == "performance-mutant":
            assert columnar.total_unnecessary() > 0
        assert coverage_of(spec, [trace]).rows() == coverage_of(spec, [records]).rows()
        assert trace.stall_cycles_by_flag() == records.stall_cycles_by_flag()


# -- row functions ---------------------------------------------------------------------


class _CountingEvalInterlock(ClosedFormInterlock):
    """Overrides ``compute_moe`` only: the simulator must go through it."""

    def __init__(self, expressions):
        super().__init__(expressions)
        self.calls = 0

    def compute_moe(self, inputs):
        self.calls += 1
        return super().compute_moe(inputs)


class _PartialInterlock(Interlock):
    """Lists every flag but drives all except one."""

    def __init__(self, reference: ClosedFormInterlock, dropped: str):
        self.reference = reference
        self.dropped = dropped
        self.name = "partial"

    def compute_moe(self, inputs):
        moe = self.reference.compute_moe(inputs)
        del moe[self.dropped]
        return moe

    def moe_flags(self):
        return self.reference.moe_flags()


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


@pytest.fixture(scope="module")
def interlock_factories():
    architecture = load_architecture("fam-r2w2d4s1-blocking")
    spec = build_functional_spec(architecture)
    reference = ClosedFormInterlock.from_spec(spec)
    first_flag = reference.moe_flags()[0]
    factories = {
        SpecFixedPointInterlock: lambda: SpecFixedPointInterlock(spec),
        ClosedFormInterlock: lambda: ClosedFormInterlock(reference.expressions()),
        ConservativeCompletionInterlock: lambda: ConservativeCompletionInterlock(
            spec, architecture
        ),
        StuckResetInterlock: lambda: StuckResetInterlock(
            ClosedFormInterlock(reference.expressions()), {first_flag: False}, cycles=5
        ),
        NetlistInterlock: lambda: synthesize_interlock(spec).interlock(),
        EvalExprInterlock: lambda: EvalExprInterlock(reference.expressions()),
        _CountingEvalInterlock: lambda: _CountingEvalInterlock(reference.expressions()),
        _PartialInterlock: lambda: _PartialInterlock(reference, first_flag),
    }
    return architecture, spec, factories


def test_row_functions_agree_with_compute_moe(interlock_factories):
    architecture, spec, factories = interlock_factories
    input_names = tuple(architecture.input_signals())
    rng = random.Random(16)
    rows = [[rng.random() < 0.5 for _ in input_names] for _ in range(64)]
    covered = set()
    for subclass in _subclasses(Interlock):
        if subclass.__module__.startswith("repro.") or subclass in factories:
            assert subclass in factories, f"no row-function check for {subclass.__name__}"
        if subclass not in factories or subclass is _PartialInterlock:
            continue
        by_row, by_dict = factories[subclass](), factories[subclass]()
        moe_names, evaluate = by_row.row_function(input_names)
        assert sorted(moe_names) == sorted(spec.moe_flags())
        by_row.reset()
        by_dict.reset()
        for cycle, row in enumerate(rows):
            by_row.on_cycle_start(cycle)
            by_dict.on_cycle_start(cycle)
            expected = by_dict.compute_moe(dict(zip(input_names, row)))
            assert dict(zip(moe_names, evaluate(row))) == expected
        covered.add(subclass)
    assert len(covered) == len(factories) - 1


def test_partial_interlock_is_rejected(interlock_factories):
    architecture, spec, factories = interlock_factories
    partial = factories[_PartialInterlock]()
    _, evaluate = partial.row_function(architecture.input_signals())
    with pytest.raises(RuntimeError, match="did not drive moe flags"):
        evaluate([False] * len(architecture.input_signals()))
    program = WorkloadGenerator(architecture, seed=1).generate(WorkloadProfile(length=8))
    with pytest.raises(RuntimeError, match="did not drive moe flags"):
        simulate(architecture, partial, program)


def test_compute_moe_override_is_simulated_through_it(interlock_factories):
    architecture, _, factories = interlock_factories
    counting = factories[_CountingEvalInterlock]()
    program = WorkloadGenerator(architecture, seed=2).generate(WorkloadProfile(length=16))
    trace = simulate(architecture, counting, program)
    assert counting.calls == trace.num_cycles() > 0


def test_closed_form_row_function_is_cached():
    architecture = load_architecture("fam-r2w1d3s1-bypass")
    interlock = ClosedFormInterlock.from_spec(build_functional_spec(architecture))
    names = architecture.input_signals()
    assert interlock.row_function(names) is interlock.row_function(list(names))


# -- program reuse ---------------------------------------------------------------------


def _instruction_cycles(program):
    return [
        (instruction.uid, instruction.issue_cycle, instruction.retire_cycle)
        for stream in program.streams.values()
        for instruction in stream
        if not instruction.is_bubble
    ]


def test_a_program_trace_does_not_depend_on_earlier_runs():
    architecture = load_architecture("fam-r4w2d4s1-bypass")
    spec = build_functional_spec(architecture)
    injector = FaultInjector(spec, seed=2)
    # A retires every instruction; B overwrites some, which never retire.
    mutant_a = injector.extra_stall_fault("p1.2.moe").interlock
    mutant_b = injector.never_stall_fault("p0.1.moe").interlock
    reused = _program(architecture, 8, MIXED)
    simulate(architecture, mutant_a, reused)
    assert all(cycle is not None for _, _, cycle in _instruction_cycles(reused))
    b_after_a = simulate(architecture, mutant_b, reused)
    fresh_program = _program(architecture, 8, MIXED)
    fresh = simulate(architecture, mutant_b, fresh_program)
    assert fresh.dropped_instructions > 0
    assert _digest(b_after_a) == _digest(fresh)
    assert _instruction_cycles(reused) == _instruction_cycles(fresh_program)
    again = PipelineSimulator(architecture, mutant_b).run(reused)
    assert _digest(again) == _digest(fresh)


# -- construction counts ---------------------------------------------------------------


def test_faults_stage_builds_no_records_or_violations(monkeypatch):
    """A count bound: the faults stage reads counts, never record objects."""
    built = {"records": 0, "violations": 0}

    def counting(cls, key):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(CycleRecord, "records")
    counting(AssertionViolation, "violations")
    clear_warm_state()
    result = run_verification_job(
        JobSpec(arch="fam-r4w2d5s1-bypass", stages=("faults",))
    )
    assert result.ok, result.error
    details = result.stage("faults").details
    assert details["detected_simulation"] > 0
    assert built == {"records": 0, "violations": 0}
