"""Tests for stall classification (repro.analysis.stalls).

Covers the bit-parallel classifier against hand-built traces (including the
zero-stall-cycle edge cases of the rate properties), cross-checks it
against per-cycle expression evaluation, and exercises the closed-form
(derivation-backed) classification mode.
"""

import pytest

from repro.analysis import StageStallStats, classify_stalls
from repro.expr import eval_expr, parse_expr
from repro.pipeline import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    simulate,
)
from repro.pipeline.trace import CycleRecord, SimulationTrace
from repro.spec import FunctionalSpec, StallClause, symbolic_most_liberal
from repro.workloads import WorkloadGenerator, WorkloadProfile, completion_contention_program


@pytest.fixture(scope="module")
def tiny_spec():
    return FunctionalSpec(
        name="tiny",
        clauses=[
            StallClause(moe="p.2.moe", condition=parse_expr("req & !gnt")),
            StallClause(moe="p.1.moe", condition=parse_expr("rtm & !p.2.moe")),
        ],
        inputs=["req", "gnt", "rtm"],
    )


def _trace(records):
    return SimulationTrace(
        architecture_name="tiny", interlock_name="hand-built", cycles=records
    )


def _record(cycle, inputs, moe):
    return CycleRecord(cycle=cycle, inputs=inputs, moe=moe, occupancy={})


class TestEdgeCases:
    def test_empty_trace(self, tiny_spec):
        breakdown = classify_stalls(_trace([]), tiny_spec)
        assert breakdown.total_stalls() == 0
        assert breakdown.total_unnecessary() == 0
        assert breakdown.worst_stage() is None

    def test_zero_stall_cycles_give_zero_rates(self, tiny_spec):
        # Every stage moves every cycle: stall and unnecessary rates must be
        # 0.0, not a division error.
        records = [
            _record(k, {"req": False, "gnt": False, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": True})
            for k in range(5)
        ]
        breakdown = classify_stalls(_trace(records), tiny_spec)
        for stats in breakdown.per_stage.values():
            assert stats.total_cycles == 5
            assert stats.stall_cycles == 0
            assert stats.stall_rate == 0.0
            assert stats.unnecessary_rate == 0.0
        assert breakdown.total_unnecessary() == 0

    def test_zero_total_cycles_rates(self):
        stats = StageStallStats(moe="p.1.moe")
        assert stats.stall_rate == 0.0
        assert stats.unnecessary_rate == 0.0

    def test_unsampled_moe_flag_counts_as_moving(self, tiny_spec):
        # A trace that never drove p.2.moe: the stage defaults to
        # moving-or-empty, so it can contribute no stalls.
        records = [
            _record(0, {"req": True, "gnt": False, "rtm": True}, {"p.1.moe": False}),
        ]
        breakdown = classify_stalls(_trace(records), tiny_spec)
        assert breakdown.per_stage["p.2.moe"].stall_cycles == 0
        assert breakdown.per_stage["p.1.moe"].stall_cycles == 1


class TestClassification:
    def test_necessary_and_unnecessary_split(self, tiny_spec):
        records = [
            # Stalled with justification: req ∧ ¬gnt holds.
            _record(0, {"req": True, "gnt": False, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": False}),
            # Stalled without justification: a performance bug.
            _record(1, {"req": False, "gnt": False, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": False}),
            # Moving: no stall recorded at all.
            _record(2, {"req": True, "gnt": True, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": True}),
        ]
        breakdown = classify_stalls(_trace(records), tiny_spec)
        stats = breakdown.per_stage["p.2.moe"]
        assert stats.stall_cycles == 2
        assert stats.necessary_stalls == 1
        assert stats.unnecessary_stalls == 1
        assert stats.unnecessary_cycles == [1]
        assert breakdown.worst_stage() == "p.2.moe"
        assert breakdown.total_unnecessary() == 1

    def test_matches_per_cycle_evaluation(self, example_arch, example_spec):
        # Bit-parallel classification must agree with the naive per-cycle
        # expression walk on a real simulated trace.
        program = WorkloadGenerator(example_arch, seed=11).generate(
            WorkloadProfile(length=100)
        )
        trace = simulate(
            example_arch,
            ConservativeCompletionInterlock(example_spec, example_arch),
            program,
        )
        breakdown = classify_stalls(trace, example_spec)
        for clause in example_spec.clauses:
            stalls = necessary = unnecessary = 0
            for record in trace.cycles:
                if record.moe.get(clause.moe, True):
                    continue
                stalls += 1
                if eval_expr(clause.condition, record.signals()):
                    necessary += 1
                else:
                    unnecessary += 1
            stats = breakdown.per_stage[clause.moe]
            assert stats.total_cycles == trace.num_cycles()
            assert (stats.stall_cycles, stats.necessary_stalls, stats.unnecessary_stalls) == (
                stalls, necessary, unnecessary,
            )

    def test_spans_multiple_words(self, tiny_spec):
        # More than 64 cycles so the packed evaluation crosses word
        # boundaries; stall on every odd cycle, justified on every fourth.
        records = []
        for k in range(150):
            stalled = k % 2 == 1
            justified = k % 4 == 1
            records.append(
                _record(
                    k,
                    {"req": justified, "gnt": False, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": not stalled},
                )
            )
        breakdown = classify_stalls(_trace(records), tiny_spec)
        stats = breakdown.per_stage["p.2.moe"]
        assert stats.stall_cycles == 75
        assert stats.necessary_stalls == 38
        assert stats.unnecessary_stalls == 37
        assert stats.unnecessary_cycles == [k for k in range(150) if k % 4 == 3]


class TestDerivationMode:
    def test_reference_interlock_has_no_unnecessary_stalls(self, example_arch, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        program = completion_contention_program(example_arch, length=64)
        trace = simulate(
            example_arch, ClosedFormInterlock.from_derivation(derivation), program
        )
        breakdown = classify_stalls(trace, example_spec, derivation=derivation)
        assert breakdown.total_stalls() > 0
        assert breakdown.total_unnecessary() == 0

    def test_closed_forms_catch_root_cause(self, example_arch, example_spec):
        # The conservative completion logic wastes cycles; against the
        # derived closed forms every one of them is flagged, including the
        # upstream stages it drags down (whose observed-signal "justification"
        # is itself a symptom of the bug).
        derivation = symbolic_most_liberal(example_spec)
        program = completion_contention_program(example_arch, length=64)
        conservative = simulate(
            example_arch,
            ConservativeCompletionInterlock(example_spec, example_arch),
            program,
        )
        observed = classify_stalls(conservative, example_spec)
        closed_form = classify_stalls(conservative, example_spec, derivation=derivation)
        assert closed_form.total_unnecessary() >= observed.total_unnecessary() > 0

    def test_describe_lists_totals(self, tiny_spec):
        records = [
            _record(0, {"req": False, "gnt": False, "rtm": False},
                    {"p.1.moe": True, "p.2.moe": False}),
        ]
        breakdown = classify_stalls(_trace(records), tiny_spec)
        text = breakdown.describe()
        assert "total stall cycles" in text
        assert "unnecessary" in text
        assert breakdown.rows()[0]["stage"] == "p.2"
