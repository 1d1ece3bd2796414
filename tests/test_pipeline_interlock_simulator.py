"""Tests for the interlock implementations and the cycle-accurate simulator."""

import random

import pytest
from conftest import dependent_chain, streams_program, with_replaced_flag

from repro.analysis import classify_stalls, compare_traces
from repro.archs import generate_family, load_architecture
from repro.expr import UnboundVariableError, Var, eval_expr
from repro.faults import FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    HazardKind,
    InstructionKind,
    PipelineSimulator,
    SimulatorConfig,
    SpecFixedPointInterlock,
    StuckResetInterlock,
    alu,
    bubble,
    reference_interlock,
    simulate,
    store,
    wait,
)
from repro.spec import build_functional_spec
from repro.workloads import (
    BALANCED,
    HAZARD_HEAVY,
    WorkloadGenerator,
    WorkloadProfile,
    completion_contention_program,
    independent_stream,
)


class TestInterlockImplementations:
    def test_closed_form_and_fixed_point_agree(self, example_spec, example_interlock):
        import random

        fixed_point = SpecFixedPointInterlock(example_spec)
        rng = random.Random(1)
        for _ in range(40):
            inputs = {name: bool(rng.getrandbits(1)) for name in example_spec.input_signals()}
            assert example_interlock.compute_moe(inputs) == fixed_point.compute_moe(inputs)

    def test_moe_flags_listed(self, example_spec, example_interlock):
        assert set(example_interlock.moe_flags()) == set(example_spec.moe_flags())
        assert set(SpecFixedPointInterlock(example_spec).moe_flags()) == set(
            example_spec.moe_flags()
        )

    def test_reference_interlock_factory(self, example_spec):
        assert isinstance(reference_interlock(example_spec), ClosedFormInterlock)

    def test_expression_access_and_mutation(self, example_interlock):
        from repro.expr import FALSE

        expression = example_interlock.expressions()["long.4.moe"]
        assert "long.gnt" in expression.variables()
        mutated = with_replaced_flag(example_interlock, "long.4.moe", FALSE)
        assert mutated.compute_moe(
            {name: False for name in mutated.expressions()["long.1.moe"].variables() | {"long.req", "long.gnt"}}
        )["long.4.moe"] is False
        with pytest.raises(KeyError):
            with_replaced_flag(example_interlock, "ghost.moe", FALSE)

    def test_stuck_reset_interlock_window(self, example_spec, example_interlock):
        stuck = StuckResetInterlock(example_interlock, {"long.1.moe": False}, cycles=2)
        inputs = {name: False for name in example_spec.input_signals()}
        stuck.on_cycle_start(0)
        assert stuck.compute_moe(inputs)["long.1.moe"] is False
        stuck.on_cycle_start(1)
        assert stuck.compute_moe(inputs)["long.1.moe"] is False
        stuck.on_cycle_start(2)
        assert stuck.compute_moe(inputs)["long.1.moe"] is True
        stuck.reset()
        stuck.on_cycle_start(0)
        assert stuck.compute_moe(inputs)["long.1.moe"] is False

    def test_stuck_reset_requires_positive_window(self, example_interlock):
        with pytest.raises(ValueError):
            StuckResetInterlock(example_interlock, {"long.1.moe": False}, cycles=0)

    def test_conservative_completion_is_hazard_free_but_slower(
        self, example_arch, example_spec
    ):
        program = completion_contention_program(example_arch, length=30)
        fast = simulate(example_arch, reference_interlock(example_spec), program)
        slow = simulate(
            example_arch,
            ConservativeCompletionInterlock(example_spec, example_arch),
            program,
        )
        assert slow.hazard_free()
        assert slow.num_cycles() > fast.num_cycles()
        assert slow.retired_instructions == fast.retired_instructions
        # The Section 4 completion-logic redesign: the derived interlock
        # removes completion-stage stalls and raises throughput.
        assert compare_traces(slow, fast).speedup > 1.0
        assert fast.instructions_per_cycle() > slow.instructions_per_cycle()
        completion = ("long.4.moe", "short.2.moe")
        slow_stalls = classify_stalls(slow, example_spec).per_stage
        fast_stalls = classify_stalls(fast, example_spec).per_stage
        assert sum(fast_stalls[flag].stall_cycles for flag in completion) < sum(
            slow_stalls[flag].stall_cycles for flag in completion
        )


class EvalExprInterlock(ClosedFormInterlock):
    """Reference evaluator: one ``eval_expr`` tree walk per flag and cycle."""

    def compute_moe(self, inputs):
        return {
            moe: eval_expr(expression, inputs)
            for moe, expression in self.expressions().items()
        }


def trace_rows(trace):
    return [
        (record.cycle, record.inputs, record.moe, record.occupancy)
        for record in trace.cycles
    ]


class TestCompiledClosedForms:
    """Compiled closed forms evaluate exactly like the expression trees."""

    @pytest.mark.parametrize("arch_name", [config.name for config in generate_family()])
    def test_family_member_and_first_faults(self, arch_name):
        arch = load_architecture(arch_name)
        spec = build_functional_spec(arch)
        injector = FaultInjector(spec, seed=0)
        interlocks = [injector.reference] + [
            fault.interlock for fault in injector.standard_fault_set(limit=4)
        ]
        rng = random.Random(arch_name)
        valuations = [
            {name: rng.random() < 0.5 for name in spec.input_signals()}
            for _ in range(64)
        ]
        for interlock in interlocks:
            assert isinstance(interlock, ClosedFormInterlock)
            reference = EvalExprInterlock(interlock.expressions())
            for valuation in valuations:
                assert interlock.compute_moe(valuation) == reference.compute_moe(
                    valuation
                )

        program = WorkloadGenerator(arch, seed=7).generate(WorkloadProfile(length=48))
        compiled_trace = simulate(arch, injector.reference, program)
        reference_trace = simulate(
            arch, EvalExprInterlock(injector.reference.expressions()), program
        )
        assert compiled_trace.num_cycles() > 0
        assert trace_rows(compiled_trace) == trace_rows(reference_trace)
        assert compiled_trace.hazards == reference_trace.hazards

    def test_partial_valuation_keeps_eval_expr_semantics(self):
        interlock = ClosedFormInterlock({"a.moe": Var("x") & Var("y")})
        # y cannot matter once x is false, exactly as with eval_expr...
        assert interlock.compute_moe({"x": False}) == {"a.moe": False}
        # ...and an unbound variable that does matter is still an error.
        with pytest.raises(UnboundVariableError):
            interlock.compute_moe({"x": True})


class TestSimulatorBasics:
    def test_single_instruction_flows_through_long_pipe(self, example_arch, example_spec):
        program = streams_program(long=[alu("long", dst=0)], short=[])
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.retired_instructions == 1
        assert trace.hazard_free()
        # Issue at cycle 0, then 3 more stages: writeback from stage 4.
        assert trace.num_cycles() == 5

    def test_single_instruction_short_pipe_is_faster(self, example_arch, example_spec):
        long_prog = streams_program(long=[alu("long", dst=0)], short=[])
        short_prog = streams_program(long=[], short=[alu("short", dst=0)])
        interlock = reference_interlock(example_spec)
        long_trace = simulate(example_arch, interlock, long_prog)
        short_trace = simulate(example_arch, interlock, short_prog)
        assert short_trace.num_cycles() < long_trace.num_cycles()

    def test_store_retires_without_bus(self, example_arch, example_spec):
        program = streams_program(long=[store("long", src=1)], short=[])
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.retired_instructions == 1
        assert trace.hazard_free()

    def test_bubbles_do_not_retire(self, example_arch, example_spec):
        program = streams_program(long=[bubble("long"), alu("long", dst=0)], short=[])
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.retired_instructions == 1
        assert trace.issued_instructions == 1

    def test_wait_instruction_holds_issue(self, example_arch, example_spec):
        with_wait = streams_program(
            long=[wait("long", 3), alu("long", dst=0)], short=[]
        )
        without_wait = streams_program(long=[alu("long", dst=0)], short=[])
        interlock = reference_interlock(example_spec)
        slow = simulate(example_arch, interlock, with_wait)
        fast = simulate(example_arch, interlock, without_wait)
        assert slow.num_cycles() >= fast.num_cycles() + 3
        assert slow.hazard_free()
        assert slow.retired_instructions == 2  # the WAIT retires in place

    def test_dependent_chain_stalls_but_stays_correct(self, example_arch, example_spec):
        program = streams_program(
            long=dependent_chain("long", 10, num_registers=2), short=[]
        )
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.hazard_free()
        assert trace.retired_instructions == 10
        # Dependencies force stalls: visibly more than one cycle per instruction.
        assert trace.num_cycles() > 12

    def test_completion_contention_prefers_short_pipe(self, example_arch, example_spec):
        program = completion_contention_program(example_arch, length=20)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.hazard_free()
        assert trace.retired_instructions == 40
        # With both pipes completing every cycle the long pipe loses arbitration
        # sometimes, so its completion stage records stall cycles.
        assert trace.stall_cycles("long.4.moe") > 0

    def test_round_robin_arbiter_also_hazard_free(self, example_arch, example_spec):
        program = completion_contention_program(example_arch, length=20)
        config = SimulatorConfig(arbiter="round-robin")
        trace = simulate(example_arch, reference_interlock(example_spec), program, config)
        assert trace.hazard_free()
        assert trace.retired_instructions == 40

    def test_max_cycles_cap(self, example_arch, example_spec):
        # An interlock that never lets anything issue deadlocks the machine;
        # the cap keeps the run finite.
        from repro.expr import FALSE

        reference = ClosedFormInterlock.from_spec(example_spec)
        dead = with_replaced_flag(
            with_replaced_flag(reference, "long.1.moe", FALSE), "short.1.moe", FALSE
        )
        program = streams_program(long=[alu("long", dst=0)], short=[])
        config = SimulatorConfig(max_cycles=50)
        trace = simulate(example_arch, dead, program, config)
        assert trace.num_cycles() == 50
        assert trace.retired_instructions == 0

    def test_missing_moe_flag_rejected(self, example_arch, example_spec):
        incomplete = ClosedFormInterlock(
            {"long.4.moe": ClosedFormInterlock.from_spec(example_spec).expressions()["long.4.moe"]}
        )
        program = streams_program(long=[alu("long", dst=0)], short=[])
        with pytest.raises(RuntimeError, match="did not drive moe flags"):
            simulate(example_arch, incomplete, program)

    def test_stop_on_hazard(self, example_arch, example_spec):
        from repro.faults import FaultInjector

        injector = FaultInjector(example_spec)
        fault = injector.never_stall_fault("long.4.moe")
        program = completion_contention_program(example_arch, length=20)
        config = SimulatorConfig(stop_on_hazard=True)
        trace = simulate(example_arch, fault.interlock, program, config)
        assert trace.hazard_count() >= 1
        assert trace.num_cycles() < 100

    def test_trace_records_have_consistent_shape(self, example_arch, example_spec):
        program = streams_program(long=[alu("long", dst=1)], short=[alu("short", dst=0)])
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        for record in trace.cycles:
            assert set(record.moe) == set(example_arch.moe_signals())
            assert set(example_arch.input_signals()) <= set(record.inputs)
            merged = record.signals()
            assert set(record.moe) <= set(merged)
        assert trace.describe().startswith("Simulation of")

    def test_simulator_reset_between_runs(self, example_arch, example_spec):
        simulator = PipelineSimulator(example_arch, reference_interlock(example_spec))
        program = streams_program(long=[alu("long", dst=0)], short=[])
        first = simulator.run(program)
        # Re-running the same Program object: fetch indices and occupancy reset,
        # so the cycle count is identical.
        second = simulator.run(program)
        assert first.num_cycles() == second.num_cycles()

    def test_issue_cycle_of_an_instruction_fetched_in_cycle_zero(
        self, example_arch, example_spec
    ):
        first, second = alu("long", dst=0), alu("long", dst=1)
        program = streams_program(long=[first, second], short=[])
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        assert trace.cycles[0].issued == [first.uid]
        # Leaving stage 1 (in cycle 1) must not overwrite the fetch cycle 0.
        assert first.issue_cycle == 0
        assert second.issue_cycle == 1
        assert first.retire_cycle is not None


class TestHazardDetectionWithBrokenInterlocks:
    def test_never_stall_completion_causes_hazards(self, example_arch, example_spec):
        from repro.faults import FaultInjector

        fault = FaultInjector(example_spec).never_stall_fault("long.4.moe")
        program = completion_contention_program(example_arch, length=20)
        trace = simulate(example_arch, fault.interlock, program)
        assert not trace.hazard_free()
        kinds = {hazard.kind for hazard in trace.hazards}
        assert kinds <= {HazardKind.OVERWRITE}

    def test_missing_scoreboard_term_causes_stale_operands(self, example_arch, example_spec):
        # Weaken the long issue stall condition by dropping the register
        # hazard terms entirely.
        from repro.spec import BuilderOptions, SpecBuilder

        optimistic_spec = SpecBuilder(
            example_arch, BuilderOptions(include_scoreboard=False)
        ).build()
        optimistic = ClosedFormInterlock.from_spec(optimistic_spec)
        program = streams_program(
            long=dependent_chain("long", 8, num_registers=2), short=[]
        )
        trace = simulate(example_arch, optimistic, program)
        assert trace.hazard_count(HazardKind.STALE_OPERAND) + trace.hazard_count(
            HazardKind.WAW_VIOLATION
        ) > 0

    def test_broken_lockstep_detected(self, example_arch, example_spec):
        from repro.spec import BuilderOptions, SpecBuilder

        no_lockstep_spec = SpecBuilder(
            example_arch, BuilderOptions(include_lockstep=False)
        ).build()
        loose = ClosedFormInterlock.from_spec(no_lockstep_spec)
        program = streams_program(
            long=[wait("long", 3), alu("long", dst=0)],
            short=[alu("short", dst=1), alu("short", dst=0)],
        )
        trace = simulate(example_arch, loose, program)
        assert trace.hazard_count(HazardKind.LOCKSTEP_BROKEN) > 0

    def test_bad_reset_low_just_delays(self, example_arch, example_spec):
        reference = reference_interlock(example_spec)
        delayed = StuckResetInterlock(
            reference_interlock(example_spec),
            {"long.1.moe": False, "short.1.moe": False},
            cycles=3,
        )
        program = streams_program(long=[alu("long", dst=0)], short=[])
        base = simulate(example_arch, reference, program)
        slow = simulate(example_arch, delayed, program)
        assert slow.retired_instructions == base.retired_instructions
        assert slow.num_cycles() >= base.num_cycles() + 3


class TestWorkloadGenerators:
    def test_generator_is_deterministic_per_seed(self, example_arch):
        first = WorkloadGenerator(example_arch, seed=5).generate(BALANCED)
        second = WorkloadGenerator(example_arch, seed=5).generate(BALANCED)
        assert [i.kind for i in first.streams["long"]] == [
            i.kind for i in second.streams["long"]
        ]
        third = WorkloadGenerator(example_arch, seed=6).generate(BALANCED)
        assert [i.kind for i in first.streams["long"]] != [
            i.kind for i in third.streams["long"]
        ] or [i.dst for i in first.streams["long"]] != [i.dst for i in third.streams["long"]]

    def test_profile_validation(self):
        from repro.workloads import WorkloadProfile

        with pytest.raises(ValueError):
            WorkloadProfile(dependency_rate=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(length=0)

    def test_wait_instructions_only_on_wait_capable_pipes(self, example_arch):
        from repro.workloads import WAIT_HEAVY

        program = WorkloadGenerator(example_arch, seed=0).generate(WAIT_HEAVY)
        assert not any(i.kind is InstructionKind.WAIT for i in program.streams["short"])
        assert any(i.kind is InstructionKind.WAIT for i in program.streams["long"])

    def test_register_addresses_respect_scoreboard_width(self, example_arch):
        program = WorkloadGenerator(example_arch, seed=0).generate(HAZARD_HEAVY)
        limit = example_arch.scoreboard.num_registers
        for stream in program.streams.values():
            for instruction in stream:
                for address in (instruction.src, instruction.dst):
                    assert address is None or 0 <= address < limit

    def test_interrupt_profile_populates_external_inputs(self, firepath_arch):
        from repro.workloads import WorkloadProfile

        profile = WorkloadProfile(length=20, interrupt_rate=0.5)
        program = WorkloadGenerator(firepath_arch, seed=0).generate(profile)
        assert "interrupt" in program.external_inputs
        assert program.external_inputs["interrupt"]

    def test_fixed_streams(self):
        stream = independent_stream("p", 5, num_registers=4)
        assert [i.dst for i in stream] == [0, 1, 2, 3, 0]
        assert all(i.kind is InstructionKind.ALU and i.src is None for i in stream)
