"""Tests for assertion generation, runtime monitoring and SVA/PSL emission."""

import pytest

from repro.assertions import (
    AssertionKind,
    AssertionMonitor,
    functional_assertions,
    monitor_trace,
    performance_assertions,
    psl_vunit,
    sva_bind_directive,
    sva_module,
    testbench_assertions,
)
from repro.analysis import render_table
from repro.faults import FaultInjector
from repro.pipeline import reference_interlock, simulate
from repro.spec import PerformanceSpec
from repro.workloads import WorkloadGenerator, BALANCED, completion_contention_program


class TestAssertionGeneration:
    def test_one_functional_assertion_per_stage(self, example_spec):
        assertions = functional_assertions(example_spec)
        assert len(assertions) == len(example_spec.moe_flags())
        assert all(a.kind is AssertionKind.FUNCTIONAL for a in assertions)
        assert {a.moe for a in assertions} == set(example_spec.moe_flags())

    def test_one_performance_assertion_per_stage(self, example_spec):
        assertions = performance_assertions(PerformanceSpec(example_spec))
        assert len(assertions) == len(example_spec.moe_flags())
        assert all(a.kind is AssertionKind.PERFORMANCE for a in assertions)

    def test_testbench_assertions_both_halves(self, example_spec):
        assertions = testbench_assertions(example_spec)
        kinds = [a.kind for a in assertions]
        assert kinds.count(AssertionKind.FUNCTIONAL) == len(example_spec.moe_flags())
        assert kinds.count(AssertionKind.PERFORMANCE) == len(example_spec.moe_flags())

    def test_assertion_names_unique(self, example_spec):
        names = [a.name for a in testbench_assertions(example_spec)]
        assert len(names) == len(set(names))

    def test_assertion_holds_evaluates_formula(self, example_spec):
        assertion = functional_assertions(example_spec)[0]  # long completion
        signals = {"long.req": True, "long.gnt": False, "long.4.moe": False}
        assert assertion.holds(signals)
        signals["long.4.moe"] = True
        assert not assertion.holds(signals)

    def test_describe_mentions_kind(self, example_spec):
        assert "[functional]" in functional_assertions(example_spec)[0].describe()


class TestAssertionMonitor:
    def test_monitor_requires_assertions(self):
        with pytest.raises(ValueError):
            AssertionMonitor([])

    def test_clean_trace_reports_clean(self, example_arch, example_spec):
        program = WorkloadGenerator(example_arch, seed=0).generate(BALANCED)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        report = monitor_trace(trace, testbench_assertions(example_spec))
        assert report.clean()
        assert report.cycles_checked == trace.num_cycles()
        assert report.violation_count() == 0
        assert report.first_violation() is None
        assert "violations:          0" in report.describe()

    def test_performance_fault_fires_performance_assertions_only(
        self, example_arch, example_spec
    ):
        fault = FaultInjector(example_spec).extra_stall_fault("long.4.moe")
        program = completion_contention_program(example_arch, length=20)
        trace = simulate(example_arch, fault.interlock, program)
        report = monitor_trace(trace, testbench_assertions(example_spec))
        assert report.violation_count(AssertionKind.PERFORMANCE) > 0
        assert report.violation_count(AssertionKind.FUNCTIONAL) == 0
        fired = {(v.assertion.kind, v.assertion.name) for v in report.violations}
        assert (AssertionKind.PERFORMANCE, "perf_long_4_moe") in fired
        first = report.first_violation(AssertionKind.PERFORMANCE)
        assert first is not None and first.assertion.moe == "long.4.moe"

    def test_functional_fault_fires_functional_assertions(self, example_arch, example_spec):
        fault = FaultInjector(example_spec).never_stall_fault("long.4.moe")
        program = completion_contention_program(example_arch, length=20)
        trace = simulate(example_arch, fault.interlock, program)
        report = monitor_trace(trace, testbench_assertions(example_spec))
        assert report.violation_count(AssertionKind.FUNCTIONAL) > 0
        assert trace.hazard_count() > 0

    def test_monitor_rejects_traces_missing_signals(self, example_spec):
        from repro.pipeline.trace import CycleRecord, SimulationTrace

        record = CycleRecord(cycle=0, inputs={}, moe={}, occupancy={})
        trace = SimulationTrace(architecture_name="x", interlock_name="y", cycles=[record])
        with pytest.raises(KeyError):
            monitor_trace(trace, testbench_assertions(example_spec))


class TestHdlEmission:
    def test_sva_module_structure(self, example_spec):
        assertions = testbench_assertions(example_spec)
        text = sva_module(assertions, module_name="checker")
        assert text.count("assert property") == len(assertions)
        assert "module checker (" in text and text.rstrip().endswith("endmodule")
        assert "input logic clk" in text and "rst_n" in text
        # Sanitised signal names appear as ports.
        assert "input logic long_4_moe" in text
        assert "scb_0_" in text

    def test_sva_module_without_reset(self, example_spec):
        text = sva_module(functional_assertions(example_spec), reset=None)
        assert "disable iff" not in text

    def test_sva_requires_assertions(self):
        with pytest.raises(ValueError):
            sva_module([])

    def test_bind_directive(self, example_spec):
        assertions = functional_assertions(example_spec)
        directive = sva_bind_directive(
            "pipeline_top", assertions=assertions, signal_prefix="u_ctl."
        )
        assert directive.startswith("bind pipeline_top pipeline_spec_checker")
        assert ".long_4_moe(u_ctl.long_4_moe)" in directive

    def test_psl_vunit_structure(self, example_spec):
        assertions = testbench_assertions(example_spec)
        text = psl_vunit(assertions, unit_name="spec", bound_entity="ctl")
        assert text.startswith("-- Generated")
        assert "vunit spec (ctl)" in text
        assert text.count("assert p_") == len(assertions)
        with pytest.raises(ValueError):
            psl_vunit([])


class TestRenderTable:
    def test_empty(self):
        assert render_table([]) == "  (no rows)"

    def test_alignment_and_columns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 200, "b": "z"}]
        table = render_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]
        assert "200" in lines[3]
        assert lines[2].index("xy") == lines[3].index("z")

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        table = render_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]
