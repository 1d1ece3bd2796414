"""Tests for property checking, exhaustive campaigns, RTL synthesis and fault injection."""

import pytest

from repro.checking import (
    PropertyChecker,
    check_implementation,
    environment_assumptions,
    environment_formula,
    exhaustive_program_campaign,
    random_simulation_campaign,
)
from repro.archs import load_architecture
from repro.expr import FALSE, eval_expr
from repro.faults import FaultCampaign, FaultClass, FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    Program,
    alu,
    bubble,
    reference_interlock,
    simulate,
)
from repro.assertions import testbench_assertions
from repro.spec import build_functional_spec, conservative_variant, symbolic_most_liberal
from repro.synth import (
    GateKind,
    Module,
    NetlistInterlock,
    Port,
    PortDirection,
    behavioural_verilog,
    module_to_verilog,
    synthesis_to_verilog,
    synthesize_interlock,
)
from repro.workloads import WorkloadGenerator, BALANCED, completion_contention_program


class TestEnvironmentAssumptions:
    def test_assumptions_hold_in_every_simulated_cycle(self, example_arch, example_spec):
        assumptions = environment_assumptions(example_arch)
        program = WorkloadGenerator(example_arch, seed=0).generate(BALANCED)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        for record in trace.cycles:
            signals = record.signals()
            for assumption in assumptions:
                assert eval_expr(assumption, signals), record.cycle

    def test_environment_formula_is_conjunction(self, example_arch):
        formula = environment_formula(example_arch)
        names = formula.variables()
        assert "long.gnt" in names and "short.req" in names


class TestPropertyChecker:
    def test_reference_interlock_proves_everything(self, example_arch, example_spec, example_interlock):
        reports = check_implementation(example_spec, example_interlock, example_arch)
        assert reports["functional"].all_hold()
        assert reports["performance"].all_hold()
        assert reports["combined"].all_hold()

    def test_equivalence_with_derived(self, example_spec, example_interlock):
        checker = PropertyChecker(example_spec)
        report = checker.check_equivalence_with_derived(example_interlock)
        assert report.all_hold()

    def test_sat_backend_agrees_with_bdd(self, example_spec, example_interlock):
        bdd = PropertyChecker(example_spec, backend="bdd").check_performance(example_interlock)
        sat = PropertyChecker(example_spec, backend="sat").check_performance(example_interlock)
        assert bdd.all_hold() and sat.all_hold()

    def test_invalid_backend_rejected(self, example_spec):
        with pytest.raises(ValueError):
            PropertyChecker(example_spec, backend="z3")

    def test_no_bypass_interlock_needs_the_equivalence_check(self, example_arch, example_spec):
        """Mutually-justified stalls slip past the per-stage performance implications.

        The no-bypass interlock stalls both lock-step issue stages whenever a
        register is outstanding, even when the completion bus bypasses it.
        Each issue stage's stall is then "justified" by the other's (via the
        lock-step disjunct), so the Figure-3 implications hold — the paper
        itself notes that the functional spec alone can be satisfied by never
        moving.  Equivalence with the derived unique maximum-performance
        implementation does expose the pessimism.
        """
        pessimistic = ClosedFormInterlock.from_spec(
            conservative_variant(example_arch), name="no-bypass"
        )
        checker = PropertyChecker(example_spec, architecture=example_arch)
        assert checker.check_functional(pessimistic).all_hold()
        assert checker.check_performance(pessimistic).all_hold()
        equivalence = checker.check_equivalence_with_derived(pessimistic)
        assert not equivalence.all_hold()
        assert set(equivalence.failing_stages()) <= {"long.1.moe", "short.1.moe"}

    def test_counterexample_is_a_real_violation(self, example_arch, example_spec):
        fault = FaultInjector(example_spec, seed=4).extra_stall_fault("long.2.moe")
        checker = PropertyChecker(example_spec, architecture=example_arch)
        performance = checker.check_performance(fault.interlock)
        assert not performance.all_hold()
        failure = next(f for f in performance.failures() if f.moe == "long.2.moe")
        counterexample = dict(failure.counterexample)
        pessimistic = fault.interlock
        # Fill unmentioned inputs with False and confirm the implementation
        # stalls although the specification's stall condition is false.
        inputs = {name: counterexample.get(name, False) for name in example_spec.input_signals()}
        moe = pessimistic.compute_moe(inputs)
        assert moe[failure.moe] is False
        condition = example_spec.condition_for(failure.moe)
        signals = dict(inputs)
        signals.update(moe)
        assert not eval_expr(condition, signals)

    def test_missing_flag_rejected(self, example_spec, example_interlock):
        partial = ClosedFormInterlock({"long.4.moe": example_interlock.expression_for("long.4.moe")})
        checker = PropertyChecker(example_spec)
        with pytest.raises(ValueError):
            checker.check_functional(partial)

    def test_report_describe(self, example_spec, example_interlock):
        checker = PropertyChecker(example_spec)
        text = checker.check_functional(example_interlock).describe()
        assert "all properties proved" in text

    def test_fault_detection_matrix(self, example_arch, example_spec):
        checker = PropertyChecker(example_spec, architecture=example_arch)
        injector = FaultInjector(example_spec, seed=2)
        perf_fault = injector.extra_stall_fault("long.2.moe")
        func_fault = injector.missing_term_fault("long.1.moe", term_index=0)
        assert checker.check_functional(perf_fault.interlock).all_hold()
        assert not checker.check_performance(perf_fault.interlock).all_hold()
        assert not checker.check_functional(func_fault.interlock).all_hold()
        assert checker.check_performance(func_fault.interlock).all_hold()


class TestSimulationCampaigns:
    def test_random_campaign_clean_for_reference(self, example_arch, example_spec, example_interlock):
        result = random_simulation_campaign(
            example_arch,
            example_interlock,
            testbench_assertions(example_spec),
            num_programs=2,
            seed=3,
        )
        assert result.programs_run == 2
        assert not result.any_violation
        assert result.hazards == 0
        assert "programs run" in result.describe()

    def test_random_campaign_detects_fault(self, example_arch, example_spec):
        fault = FaultInjector(example_spec).extra_stall_fault("short.2.moe")
        result = random_simulation_campaign(
            example_arch,
            fault.interlock,
            testbench_assertions(example_spec),
            num_programs=2,
            seed=3,
            keep_reports=True,
        )
        assert result.any_violation
        assert result.first_failing_program is not None
        assert result.reports

    def test_exhaustive_campaign_enumerates_programs(self, example_arch, example_spec, example_interlock):
        alphabet = {
            "long": [alu("long", dst=0), bubble("long")],
            "short": [alu("short", dst=1)],
        }
        result = exhaustive_program_campaign(
            example_arch,
            example_interlock,
            testbench_assertions(example_spec),
            alphabet=alphabet,
            length=2,
        )
        assert result.programs_run == 4  # (2*1)^2 slot combinations
        assert not result.any_violation

    def test_exhaustive_campaign_respects_max_programs(self, example_arch, example_spec, example_interlock):
        alphabet = {
            "long": [alu("long", dst=0), bubble("long")],
            "short": [alu("short", dst=1), bubble("short")],
        }
        result = exhaustive_program_campaign(
            example_arch,
            example_interlock,
            testbench_assertions(example_spec),
            alphabet=alphabet,
            length=2,
            max_programs=5,
        )
        assert result.programs_run == 5


class TestSynthesis:
    def test_netlist_matches_closed_forms_on_random_inputs(self, example_spec, example_interlock):
        import random

        synthesis = synthesize_interlock(example_spec)
        netlist = synthesis.interlock()
        rng = random.Random(0)
        for _ in range(40):
            inputs = {name: bool(rng.getrandbits(1)) for name in example_spec.input_signals()}
            assert netlist.compute_moe(inputs) == example_interlock.compute_moe(inputs)

    def test_netlist_interlock_simulates_identically(self, example_arch, example_spec, example_interlock):
        synthesis = synthesize_interlock(example_spec)
        program = completion_contention_program(example_arch, length=15)
        reference_trace = simulate(example_arch, example_interlock, program)
        netlist_trace = simulate(example_arch, synthesis.interlock(), program)
        assert netlist_trace.num_cycles() == reference_trace.num_cycles()
        assert netlist_trace.hazard_free()

    def test_synthesised_interlock_proves_combined_spec(self, example_arch, example_spec):
        synthesis = synthesize_interlock(example_spec)
        checker = PropertyChecker(example_spec, architecture=example_arch)
        assert checker.check_combined(synthesis.interlock()).all_hold()

    def test_verilog_emission(self, example_spec):
        synthesis = synthesize_interlock(example_spec)
        gate_level = synthesis_to_verilog(synthesis)
        assert gate_level.count("module") >= 1 and "endmodule" in gate_level
        assert "assign" in gate_level
        behavioural = synthesis_to_verilog(synthesis, behavioural=True)
        assert "output wire long_4_moe" in behavioural
        assert behavioural.count("assign") == len(example_spec.moe_flags())

    def test_module_validation_catches_errors(self):
        module = Module(name="bad", ports=[Port("o", PortDirection.OUTPUT)])
        with pytest.raises(ValueError):
            module.validate()  # output never driven
        from repro.synth import Gate

        module = Module(
            name="bad2",
            ports=[Port("i", PortDirection.INPUT), Port("o", PortDirection.OUTPUT)],
            gates=[Gate(kind=GateKind.BUF, output="o", inputs=("ghost",))],
        )
        with pytest.raises(ValueError):
            module.validate()

    def test_gate_arity_validation(self):
        from repro.synth import Gate

        with pytest.raises(ValueError):
            Gate(kind=GateKind.NOT, output="x", inputs=())
        with pytest.raises(ValueError):
            Gate(kind=GateKind.AND, output="x", inputs=("a",))

    def test_module_evaluate_requires_all_inputs(self, example_spec):
        synthesis = synthesize_interlock(example_spec)
        with pytest.raises(KeyError):
            synthesis.module.evaluate({})

    def test_gate_count_positive(self, example_spec):
        synthesis = synthesize_interlock(example_spec)
        assert synthesis.gate_count() > len(example_spec.moe_flags())


class TestFaultInjection:
    def test_standard_fault_set_covers_every_stage_and_class(self, example_spec):
        faults = FaultInjector(example_spec, seed=0).standard_fault_set()
        targeted = {fault.target_moe for fault in faults}
        assert targeted == set(example_spec.moe_flags())
        classes = {fault.fault_class for fault in faults}
        assert classes == {FaultClass.PERFORMANCE, FaultClass.FUNCTIONAL, FaultClass.INITIALISATION}

    def test_limited_fault_set_builds_only_what_it_returns(self, monkeypatch):
        # A work count, not a timing: each built fault re-derives at most
        # once, so a limit of 4 costs at most 4 derivations.
        import repro.faults.injection
        import repro.pipeline.interlock
        import repro.spec.derivation

        calls = []
        original = repro.spec.derivation.symbolic_most_liberal

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return original(*args, **kwargs)

        for module in (
            repro.spec.derivation,
            repro.faults.injection,
            repro.pipeline.interlock,
        ):
            monkeypatch.setattr(module, "symbolic_most_liberal", counting)

        spec = build_functional_spec(load_architecture("fam-r4w2d5s1-bypass"))
        injector = FaultInjector(spec, seed=0)
        assert len(calls) == 1  # the injector's reference derivation
        limited = injector.standard_fault_set(limit=4)
        assert len(limited) == 4
        assert len(calls) - 1 <= 4

        everything = injector.standard_fault_set()
        expected = []
        for clause in spec.clauses:
            moe = clause.moe
            expected.append(injector.extra_stall_fault(moe))
            if clause.condition != FALSE:
                expected.append(injector.missing_term_fault(moe, term_index=0))
                expected.append(injector.never_stall_fault(moe))
            expected.append(injector.stuck_stall_fault(moe))
            expected.append(injector.bad_reset_fault(moe, value=False))
        described = [fault.describe() for fault in everything]
        assert described == [fault.describe() for fault in expected]
        assert [fault.describe() for fault in limited] == described[:4]
        assert injector.standard_fault_set(limit=0) == []

    def test_fault_descriptions(self, example_spec):
        injector = FaultInjector(example_spec)
        fault = injector.extra_stall_fault("long.3.moe")
        assert "[performance]" in fault.describe()
        assert fault.mutated_spec is not None

    def test_missing_term_index_bounds(self, example_spec):
        injector = FaultInjector(example_spec)
        with pytest.raises(IndexError):
            injector.missing_term_fault("long.4.moe", term_index=99)

    def test_random_fault_reproducible(self, example_spec):
        import random

        injector = FaultInjector(example_spec, seed=7)
        first = injector.random_fault(random.Random(7))
        second = injector.random_fault(random.Random(7))
        assert first.target_moe == second.target_moe
        assert first.fault_class == second.fault_class

    def test_campaign_classifies_fault_classes_correctly(self, example_arch, example_spec):
        campaign = FaultCampaign(example_arch, example_spec, num_programs=1, max_cycles=250)
        injector = FaultInjector(example_spec, seed=1)
        faults = [
            injector.extra_stall_fault("short.2.moe"),
            injector.never_stall_fault("long.4.moe"),
            injector.bad_reset_fault("long.1.moe", value=False, cycles=3),
        ]
        summary = campaign.run(faults)
        assert summary.total() == 3
        assert summary.detected_by_simulation() == 3
        assert summary.correctly_classified() == 3
        rows = summary.rows()
        assert len(rows) == 3
        class_rows = summary.summary_rows()
        assert {row["fault class"] for row in class_rows} == {
            "performance",
            "functional",
            "initialisation",
        }
        perf_row = next(r for r in class_rows if r["fault class"] == "performance")
        assert perf_row["prop detected"] == "1/1"
