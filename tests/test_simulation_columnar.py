"""The columnar simulation trace and the row-evaluated interlocks.

A :class:`~repro.pipeline.trace.SimulationTrace` keeps per-cycle rows
and builds a :class:`~repro.pipeline.trace.CycleRecord` only when one is
read; the assertion monitor keeps failure words and builds
:class:`~repro.assertions.monitor.AssertionViolation` objects only when
they are read.  These tests pin that every bulk reader sees the same thing
on the rows as one record at a time, that every interlock's row function
agrees with an independent per-valuation reference, that a program's
trace does not depend on earlier runs of it, and that the faults stage
builds no records at all.  The word-parallel consumers (stall
classification, coverage, the closed-form interlock, the assertion
monitor) are also checked against one
:func:`~repro.expr.evaluate.eval_expr` call per formula per cycle.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest
from conftest import moe_of, trace_of_records
from test_pipeline_interlock_simulator import EvalExprInterlock
from test_simulator_golden import GOLDEN, MIXED, _digest, _family_case, _program

from repro.analysis import classify_stalls, coverage_of
from repro.archs import load_architecture
from repro.assertions import AssertionKind, AssertionMonitor, testbench_assertions
from repro.assertions.monitor import AssertionViolation
import repro.expr.compile as compile_module
from repro.campaign import JobSpec, clear_warm_state, run_verification_job
from repro.expr import Or, Var, eval_expr
from repro.expr.compile import pack_bools
from repro.faults import FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    InstructionKind,
    PipelineSimulator,
    SpecFixedPointInterlock,
    StuckResetInterlock,
    simulate,
)
from repro.pipeline.interlock import Interlock
from repro.pipeline.trace import CycleRecord
from repro.spec import build_functional_spec
from repro.spec.derivation import concrete_most_liberal, symbolic_most_liberal
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


def _records(trace):
    return [trace.record(index) for index in range(trace.num_cycles())]


def _packed_per_record(trace, names, defaults=None):
    """Each signal packed with ``pack_bools`` one record at a time: moe, inputs, defaults."""
    defaults = defaults or {}

    def sample(record, name):
        for source in (record.moe, record.inputs, defaults):
            if name in source:
                return bool(source[name])
        raise KeyError(name)

    records = _records(trace)
    return {name: pack_bools([sample(record, name) for record in records]) for name in names}


@pytest.mark.parametrize("name, spec, trace", CASES, ids=[case[0] for case in CASES])
class TestColumnarMatchesRecords:
    def test_records_are_built_from_the_rows(self, name, spec, trace):
        for index in (0, trace.num_cycles() // 2, trace.num_cycles() - 1):
            record = trace.record(index)
            assert record.cycle == index
            assert list(record.inputs.items()) == list(
                zip(trace.input_names, trace.input_rows[index])
            )
            assert list(record.moe.items()) == list(zip(trace.moe_names, trace.moe_rows[index]))
            assert list(record.occupancy.items()) == list(
                zip(trace.occupancy_names, trace.occupancy_rows[index])
            )
            assert (record.issued, record.retired, record.moved, record.stalled) == (
                trace.issued[index],
                trace.retired[index],
                trace.moved[index],
                trace.stalled[index],
            )
        first = trace.record(0)
        assert all(type(value) is bool for value in first.inputs.values())
        assert all(type(value) is bool for value in first.moe.values())
        rebuilt = trace_of_records(_records(trace))
        assert _records(rebuilt) == _records(trace)

    def test_packed_columns(self, name, spec, trace):
        names = list(trace.moe_names) + list(trace.input_names)
        assert trace.pack_signal_columns(names) == _packed_per_record(trace, names)
        defaults = {"never.sampled": True, trace.moe_names[0]: False}
        with_defaults = names[:3] + list(defaults)
        assert trace.pack_signal_columns(with_defaults, defaults) == _packed_per_record(
            trace, with_defaults, defaults
        )
        with pytest.raises(KeyError, match="never.sampled"):
            trace.pack_signal_columns(names[:2] + ["never.sampled"])

    def test_monitor_counts_and_order(self, name, spec, trace):
        monitor = AssertionMonitor(testbench_assertions(spec))
        columnar = monitor.check_trace(trace)
        per_cycle = [
            violation
            for record in _records(trace)
            for violation in monitor.check_record(record)
        ]
        assert columnar.violations == per_cycle
        for kind in (None, *AssertionKind):
            expected = sum(
                1 for v in per_cycle if kind is None or v.assertion.kind is kind
            )
            assert columnar.violation_count(kind) == expected
        assert columnar.clean() == (not per_cycle)
        if name in ("hazardous-mutant", "performance-mutant"):
            assert per_cycle, "a mutant must fire some assertion"

    def test_stall_counts_per_record(self, name, spec, trace):
        records = _records(trace)
        expected = {
            flag: sum(not record.moe[flag] for record in records) for flag in trace.moe_names
        }
        assert trace.stall_cycles_by_flag() == expected
        assert [trace.stall_cycles(flag) for flag in trace.moe_names] == list(expected.values())
        assert trace.stall_cycles("never.driven") == 0
        assert trace.total_stall_cycles() == sum(expected.values())


# -- bulk evaluators against eval_expr --------------------------------------------------


def _scalar_stalls(trace, stall_formulas):
    """Per flag: (stall cycles, necessary, unnecessary cycle numbers), one eval per cycle."""
    result = {}
    for moe, formula in stall_formulas.items():
        stalls = necessary = 0
        unnecessary = []
        for record in _records(trace):
            signals = {**dict.fromkeys(stall_formulas, True), **record.signals()}
            if signals[moe]:
                continue
            stalls += 1
            if eval_expr(formula, signals):
                necessary += 1
            else:
                unnecessary.append(record.cycle)
        result[moe] = (stalls, necessary, unnecessary)
    return result


def _breakdown_of(breakdown):
    return {
        moe: (stats.stall_cycles, stats.necessary_stalls, stats.unnecessary_cycles)
        for moe, stats in breakdown.per_stage.items()
    }


@pytest.mark.parametrize("name, spec, trace", CASES, ids=[case[0] for case in CASES])
class TestBulkEvaluatorsMatchEvalExpr:
    def test_stalls_against_spec_conditions(self, name, spec, trace):
        breakdown = classify_stalls(trace, spec)
        conditions = {clause.moe: clause.condition for clause in spec.clauses}
        assert _breakdown_of(breakdown) == _scalar_stalls(trace, conditions)
        if name == "performance-mutant":
            assert breakdown.total_unnecessary() > 0
        for stats in breakdown.per_stage.values():
            assert stats.total_cycles == trace.num_cycles()
            assert stats.necessary_stalls + stats.unnecessary_stalls == stats.stall_cycles

    def test_stalls_against_derived_closed_forms(self, name, spec, trace):
        derivation = symbolic_most_liberal(spec)
        breakdown = classify_stalls(trace, spec, derivation=derivation)
        expected = _scalar_stalls(trace, derivation.stall_expressions())
        assert _breakdown_of(breakdown) == expected

    def test_coverage_counts(self, name, spec, trace):
        report = coverage_of(spec, [trace])
        assert report.traces_merged == 1
        for clause in spec.clauses:
            stage = report.stages[clause.moe]
            disjuncts = [disjunct.condition for disjunct in stage.disjuncts]
            hits = [0] * len(disjuncts)
            sole = [0] * len(disjuncts)
            moving = condition_true = 0
            for record in _records(trace):
                signals = record.signals()
                moving += record.moe.get(clause.moe, True)
                values = [eval_expr(disjunct, signals) for disjunct in disjuncts]
                condition_true += any(values)
                for index, value in enumerate(values):
                    hits[index] += value
                    sole[index] += value and sum(values) == 1
            assert stage.cycles_observed == trace.num_cycles()
            assert (stage.cycles_moving, stage.cycles_stalled) == (
                moving,
                trace.num_cycles() - moving,
            )
            assert stage.cycles_condition_true == condition_true
            assert [d.hit_cycles for d in stage.disjuncts] == hits
            assert [d.sole_justification_cycles for d in stage.disjuncts] == sole


@pytest.mark.parametrize("arch", ["dac2002-example", "firepath-like", "risc5"])
def test_closed_form_row_function_matches_eval_expr(arch):
    architecture = load_architecture(arch)
    interlock = ClosedFormInterlock.from_spec(build_functional_spec(architecture))
    expressions = interlock.expressions()
    input_names = architecture.input_signals()
    rng = random.Random(20)
    for _ in range(64):
        inputs = {name: rng.random() < 0.5 for name in input_names}
        inputs["not.an.input"] = True
        expected = {moe: eval_expr(expr, inputs) for moe, expr in expressions.items()}
        assert moe_of(interlock, inputs) == expected
    # One input order, one compiled row function.
    assert len(interlock._row_functions) == 1


def test_monitor_compiles_once_for_all_traces(monkeypatch):
    compile_module._compiled.cache_clear()
    generated = []
    real_generate = compile_module._generate

    def counting_generate(roots, names):
        generated.append(len(roots))
        return real_generate(roots, names)

    monkeypatch.setattr(compile_module, "_generate", counting_generate)
    golden = [case for case in CASES if case[0] in GOLDEN]
    name, spec, trace = golden[0]
    same_spec = [case[2] for case in golden if case[1].name == spec.name]
    assertions = testbench_assertions(spec)
    monitor = AssertionMonitor(assertions)
    reports = [monitor.check_trace(other) for other in same_spec + [trace]]
    # A second monitor over the same assertions reuses the function.
    reports.append(AssertionMonitor(assertions).check_trace(trace))
    assert generated == [len(assertions)]
    assert all(report.assertions_checked == len(assertions) for report in reports)


def test_monitor_names_the_assertion_reading_an_unsampled_signal():
    _, spec, trace = CASES[0]
    assertions = testbench_assertions(spec)
    assert len(assertions) > 1
    target = assertions[-1]
    unsampled = replace(target, formula=Or(target.formula, Var("never.sampled")))
    monitor = AssertionMonitor(assertions[:-1] + [unsampled])
    with pytest.raises(KeyError, match=f"assertion {target.name} references signal"):
        monitor.check_trace(trace)


# -- row functions ---------------------------------------------------------------------


class _PartialInterlock(Interlock):
    """Drives every flag of its reference interlock except one."""

    def __init__(self, reference: ClosedFormInterlock, dropped: str):
        self.reference = reference
        self.dropped = dropped
        self.name = "partial"

    def row_function(self, input_names):
        moe_names, evaluate = self.reference.row_function(input_names)
        kept = [index for index, moe in enumerate(moe_names) if moe != self.dropped]
        return (
            tuple(moe_names[index] for index in kept),
            lambda row: [evaluate(row)[index] for index in kept],
        )


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


def _closed_forms(expressions):
    """Reference: one ``eval_expr`` per flag on the cycle's valuation."""
    return lambda cycle, valuation: {
        moe: eval_expr(expression, valuation) for moe, expression in expressions.items()
    }


def _registered_grants(expressions, completion_pipes):
    """Reference: closed forms on grants masked unless the request was pending a cycle earlier."""
    pending = dict.fromkeys(completion_pipes, False)

    def moe(cycle, valuation):
        effective = dict(valuation)
        for pipe in completion_pipes:
            request = valuation[f"{pipe}.req"]
            if request and not pending[pipe]:
                effective[f"{pipe}.gnt"] = False
            pending[pipe] = request
        return _closed_forms(expressions)(cycle, effective)

    return moe


def _forced_after_reset(expressions, forced, cycles):
    """Reference: closed forms, with ``forced`` flags overridden before ``cycles``."""

    def moe(cycle, valuation):
        values = _closed_forms(expressions)(cycle, valuation)
        return {**values, **forced} if cycle < cycles else values

    return moe


@pytest.fixture(scope="module")
def interlock_factories():
    """Per interlock class: (factory, a fresh per-cycle reference of the same interlock)."""
    architecture = load_architecture("fam-r2w2d4s1-blocking")
    spec = build_functional_spec(architecture)
    reference = ClosedFormInterlock.from_spec(spec)
    expressions = reference.expressions()
    first_flag = spec.moe_flags()[0]
    completion_pipes = [pipe.name for pipe in architecture.pipes if pipe.completion_bus]
    factories = {
        SpecFixedPointInterlock: (
            lambda: SpecFixedPointInterlock(spec),
            lambda: lambda cycle, valuation: concrete_most_liberal(spec, valuation),
        ),
        ClosedFormInterlock: (
            lambda: ClosedFormInterlock(expressions),
            lambda: _closed_forms(expressions),
        ),
        ConservativeCompletionInterlock: (
            lambda: ConservativeCompletionInterlock(spec, architecture),
            lambda: _registered_grants(expressions, completion_pipes),
        ),
        StuckResetInterlock: (
            lambda: StuckResetInterlock(
                ClosedFormInterlock(expressions), {first_flag: False}, cycles=5
            ),
            lambda: _forced_after_reset(expressions, {first_flag: False}, 5),
        ),
        NetlistInterlock: (
            lambda: synthesize_interlock(spec).interlock(),
            lambda: _closed_forms(expressions),
        ),
        EvalExprInterlock: (
            lambda: EvalExprInterlock(expressions),
            lambda: _closed_forms(expressions),
        ),
        _PartialInterlock: (lambda: _PartialInterlock(reference, first_flag), None),
    }
    assert completion_pipes
    return architecture, spec, factories


def test_row_functions_agree_with_their_references(interlock_factories):
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
        factory, make_reference = factories[subclass]
        interlock, reference = factory(), make_reference()
        moe_names, evaluate = interlock.row_function(input_names)
        assert sorted(moe_names) == sorted(spec.moe_flags())
        interlock.reset()
        for cycle, row in enumerate(rows):
            interlock.on_cycle_start(cycle)
            sampled = list(row)
            assert dict(zip(moe_names, evaluate(row))) == reference(
                cycle, dict(zip(input_names, row))
            )
            assert row == sampled, "a row function must not change the sampled row"
        covered.add(subclass)
    assert len(covered) == len(factories) - 1


def test_a_signal_missing_from_the_row_is_named(interlock_factories):
    architecture, _, factories = interlock_factories
    completion = next(pipe.name for pipe in architecture.pipes if pipe.completion_bus)
    dropped = f"{completion}.gnt"
    input_names = [name for name in architecture.input_signals() if name != dropped]
    for subclass, (factory, _) in factories.items():
        if not subclass.__module__.startswith("repro."):
            continue
        with pytest.raises(ValueError, match=re.escape(dropped)):
            factory().row_function(input_names)


def test_partial_interlock_is_rejected(interlock_factories):
    architecture, spec, factories = interlock_factories
    partial = factories[_PartialInterlock][0]()
    program = WorkloadGenerator(architecture, seed=1).generate(WorkloadProfile(length=8))
    with pytest.raises(RuntimeError, match="did not drive moe flags"):
        simulate(architecture, partial, program)


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
        if instruction.kind is not InstructionKind.BUBBLE
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
