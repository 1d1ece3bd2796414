"""Tests for specification coverage scoring (repro.analysis.coverage)."""

import pytest

from repro.analysis import CoverageReport, coverage_of
from repro.pipeline import reference_interlock, simulate
from repro.workloads import (
    CONTENTION_HEAVY,
    HAZARD_HEAVY,
    WAIT_HEAVY,
    WorkloadGenerator,
    WorkloadProfile,
    completion_contention_program,
)


@pytest.fixture(scope="module")
def balanced_trace(example_arch, example_spec):
    program = WorkloadGenerator(example_arch, seed=3).generate(WorkloadProfile(length=50))
    return simulate(example_arch, reference_interlock(example_spec), program)


@pytest.fixture(scope="module")
def balanced_coverage(example_spec, balanced_trace):
    return coverage_of(example_spec, [balanced_trace])


class TestCoverageBasics:
    def test_every_stage_is_tracked(self, example_spec, balanced_coverage):
        assert set(balanced_coverage.stages) == set(example_spec.moe_flags())

    def test_cycle_counts_are_consistent(self, balanced_coverage, balanced_trace):
        for stage in balanced_coverage.stages.values():
            assert stage.cycles_observed == balanced_trace.num_cycles()
            assert stage.cycles_stalled + stage.cycles_moving == stage.cycles_observed

    def test_disjunct_counts_match_spec(self, example_spec, balanced_coverage):
        from repro.expr import Or

        for clause in example_spec.clauses:
            expected = len(clause.condition.operands) if isinstance(clause.condition, Or) else 1
            assert len(balanced_coverage.stages[clause.moe].disjuncts) == expected

    def test_overall_coverage_between_zero_and_one(self, balanced_coverage):
        assert 0.0 <= balanced_coverage.overall_disjunct_coverage <= 1.0

    def test_hit_counts_bounded_by_cycles(self, balanced_coverage, balanced_trace):
        for stage in balanced_coverage.stages.values():
            for disjunct in stage.disjuncts:
                assert 0 <= disjunct.hit_cycles <= balanced_trace.num_cycles()
                assert disjunct.sole_justification_cycles <= disjunct.hit_cycles

    def test_describe_and_rows(self, balanced_coverage):
        text = balanced_coverage.describe()
        assert "disjunct coverage" in text
        rows = balanced_coverage.rows()
        assert len(rows) == len(balanced_coverage.stages)
        assert {"moe flag", "disjuncts", "disjuncts covered"} <= set(rows[0])


class TestCoverageGaps:
    def test_contention_program_exercises_completion_stalls(self, example_arch, example_spec):
        program = completion_contention_program(example_arch, length=60)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        report = coverage_of(example_spec, [trace])
        completion = report.stages["long.4.moe"]
        assert completion.disjuncts[0].hit_cycles > 0

    def test_wait_free_workload_leaves_wait_disjunct_uncovered(self, example_arch, example_spec):
        profile = WorkloadProfile(length=30, wait_rate=0.0, dependency_rate=0.0)
        program = WorkloadGenerator(example_arch, seed=5).generate(profile)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        report = coverage_of(example_spec, [trace])
        from repro.expr import to_text

        uncovered_conditions = {
            to_text(disjunct.condition) for disjunct in report.uncovered()
        }
        assert any("WAIT" in condition for condition in uncovered_conditions)

    def test_wait_heavy_workload_covers_wait_disjunct(self, example_arch, example_spec):
        program = WorkloadGenerator(example_arch, seed=5).generate(
            WorkloadProfile(length=40, wait_rate=0.5)
        )
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        report = coverage_of(example_spec, [trace])
        from repro.expr import to_text

        issue = report.stages["long.1.moe"]
        wait_disjuncts = [
            d for d in issue.disjuncts if "WAIT" in to_text(d.condition)
        ]
        assert wait_disjuncts and all(d.covered for d in wait_disjuncts)

    def test_mixed_workloads_increase_coverage(self, example_arch, example_spec):
        generator = WorkloadGenerator(example_arch, seed=9)
        single = coverage_of(
            example_spec,
            [
                simulate(
                    example_arch,
                    reference_interlock(example_spec),
                    generator.generate(WorkloadProfile(length=20, wait_rate=0.0,
                                                       dependency_rate=0.0)),
                )
            ],
        )
        profiles = [HAZARD_HEAVY, CONTENTION_HEAVY, WAIT_HEAVY]
        traces = [
            simulate(example_arch, reference_interlock(example_spec), generator.generate(profile))
            for profile in profiles
        ]
        combined = coverage_of(example_spec, traces)
        assert combined.overall_disjunct_coverage >= single.overall_disjunct_coverage


class TestAccumulation:
    def test_incremental_accumulation(self, example_spec, example_arch):
        generator = WorkloadGenerator(example_arch, seed=4)
        first = simulate(
            example_arch,
            reference_interlock(example_spec),
            generator.generate(WorkloadProfile(length=10)),
        )
        second = simulate(
            example_arch,
            reference_interlock(example_spec),
            generator.generate(WorkloadProfile(length=10)),
        )
        report = coverage_of(example_spec, [first, second])
        assert report.traces_merged == 2
        assert all(
            stage.cycles_observed == first.num_cycles() + second.num_cycles()
            for stage in report.stages.values()
        )
        # One call over both traces counts what two single-trace calls count.
        separate = [coverage_of(example_spec, [trace]) for trace in (first, second)]
        for moe, stage in report.stages.items():
            assert stage.cycles_stalled == sum(r.stages[moe].cycles_stalled for r in separate)
            for index, disjunct in enumerate(stage.disjuncts):
                assert disjunct.hit_cycles == sum(
                    r.stages[moe].disjuncts[index].hit_cycles for r in separate
                )

    def test_report_is_not_an_option(self, example_spec):
        # A list of traces is the one way to accumulate coverage.
        with pytest.raises(TypeError):
            coverage_of(example_spec, [], report=CoverageReport(spec_name=example_spec.name))
