"""Tests for property checking, simulation with assertions, RTL synthesis and fault injection."""

import functools

import pytest
from conftest import moe_of

from repro.checking import PropertyChecker, environment_assumptions, environment_formula
from repro.archs import load_architecture
from repro.expr import FALSE, eval_expr
from repro.faults import FaultCampaign, FaultClass, FaultInjector
from repro.pipeline import ClosedFormInterlock, reference_interlock, simulate
from repro.assertions import monitor_trace, testbench_assertions
from repro.spec import build_functional_spec, conservative_variant, symbolic_most_liberal
from repro.synth import (
    GateKind,
    Module,
    Port,
    PortDirection,
    behavioural_verilog,
    synthesis_to_verilog,
    synthesize_interlock,
)
from repro.workloads import (
    BALANCED,
    WorkloadGenerator,
    WorkloadProfile,
    completion_contention_program,
)


class TestEnvironmentAssumptions:
    def test_assumptions_hold_in_every_simulated_cycle(self, example_arch, example_spec):
        assumptions = environment_assumptions(example_arch)
        program = WorkloadGenerator(example_arch, seed=0).generate(BALANCED)
        trace = simulate(example_arch, reference_interlock(example_spec), program)
        for record in map(trace.record, range(trace.num_cycles())):
            signals = record.signals()
            for assumption in assumptions:
                assert eval_expr(assumption, signals), record.cycle

    def test_environment_formula_is_conjunction(self, example_arch):
        formula = environment_formula(example_arch)
        names = formula.variables()
        assert "long.gnt" in names and "short.req" in names


class TestPropertyChecker:
    def test_reference_interlock_proves_everything(self, example_arch, example_spec, example_interlock):
        checker = PropertyChecker(example_spec, architecture=example_arch)
        assert checker.check_functional(example_interlock).all_hold()
        assert checker.check_performance(example_interlock).all_hold()
        assert checker.check_combined(example_interlock).all_hold()

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

    def test_equivalence_report_decides_every_flag(self, example_arch_full, example_spec_full):
        # The first standard mutant of the paper example differs from the
        # derived interlock on its first flag; the report must still hold
        # one verdict per moe flag, refuted and holding alike.
        mutant = FaultInjector(example_spec_full, seed=0).standard_fault_set(limit=1)[0]
        checker = PropertyChecker(example_spec_full, architecture=example_arch_full)
        report = checker.check_equivalence_with_derived(mutant.interlock)
        assert [result.moe for result in report.results] == example_spec_full.moe_flags()
        verdicts = [result.holds for result in report.results]
        assert verdicts[0] is False and True in verdicts[1:]

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
        moe = moe_of(pessimistic, inputs)
        assert moe[failure.moe] is False
        condition = example_spec.condition_for(failure.moe)
        signals = dict(inputs)
        signals.update(moe)
        assert not eval_expr(condition, signals)

    def test_missing_flag_rejected(self, example_spec, example_interlock):
        partial = ClosedFormInterlock({"long.4.moe": example_interlock.expressions()["long.4.moe"]})
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
        assertions = testbench_assertions(example_spec)
        for seed in (3, 4):
            program = WorkloadGenerator(example_arch, seed=seed).generate(WorkloadProfile())
            trace = simulate(example_arch, example_interlock, program)
            assert monitor_trace(trace, assertions).clean()
            assert trace.hazard_count() == 0

    def test_random_campaign_detects_fault(self, example_arch, example_spec):
        fault = FaultInjector(example_spec).extra_stall_fault("short.2.moe")
        campaign = FaultCampaign(
            example_arch, example_spec, profile=WorkloadProfile(), num_programs=2, seed=3
        )
        record = campaign.run_fault(fault)
        assert record.detected_by_simulation
        assert record.performance_violations > 0

    def test_run_fault_decides_functional_and_equivalence_only(
        self, example_arch, example_spec, monkeypatch
    ):
        campaign = FaultCampaign(example_arch, example_spec, num_programs=1, seed=3)
        checker = campaign.property_checker
        calls = []
        for name in (
            "check_functional",
            "check_performance",
            "check_combined",
            "check_equivalence_with_derived",
            "check_obligations",
            "first_refutation",
            "_report",
        ):
            def counted(*args, _name=name, _method=getattr(checker, name), **kwargs):
                calls.append((_name,) + args[1:])
                return _method(*args, **kwargs)

            monkeypatch.setattr(checker, name, counted)
        fault = FaultInjector(example_spec, seed=1).extra_stall_fault("short.2.moe")
        record = campaign.run_fault(fault)
        assert calls == [
            ("first_refutation", "functional"),
            ("first_refutation", "equivalence"),
        ]
        # Only the two first refutations are kept: no full report was built.
        assert set(checker._reports[fault.interlock]) == {
            ("first", "functional"),
            ("first", "equivalence"),
        }
        assert record.detected_by_property_check and not record.vacuous

    def test_wait_blind_fault_needs_wait_stimulus_or_property_check(
        self, example_arch, example_spec
    ):
        # Dropping the WAIT term of the long issue stage is invisible to a
        # testbench without WAIT instructions; the exhaustive property check
        # refutes it at once, and WAIT-heavy stimulus does fire assertions.
        condition = example_spec.condition_for("long.1.moe")
        wait_index = next(
            index
            for index, term in enumerate(condition.operands)
            if "op_is_WAIT" in term.variables()
        )
        fault = FaultInjector(example_spec, seed=0).missing_term_fault(
            "long.1.moe", term_index=wait_index
        )
        without_waits = FaultCampaign(
            example_arch, example_spec, num_programs=3, seed=0,
            profile=WorkloadProfile(length=60, wait_rate=0.0),
        ).run_fault(fault)
        assert not without_waits.detected_by_simulation
        assert without_waits.property_check_functional_failed is True
        checker = PropertyChecker(example_spec, architecture=example_arch)
        assert checker.check_functional(fault.interlock).failing_stages() == ["long.1.moe"]
        with_waits = FaultCampaign(
            example_arch, example_spec, num_programs=3, seed=0,
            profile=WorkloadProfile(length=60, wait_rate=0.3),
        ).run_fault(fault)
        assert with_waits.functional_violations > 0


# Closed-form mutants of FaultInjector(spec, seed=3).standard_fault_set()
# per architecture; the aggregate test below fails if a count drifts.
ORACLE_MUTANTS = {
    "dac2002-example": 24,
    "risc5": 20,
    "fam-r4w2d5s1-bypass": 36,
    "fam-r2w1d3s1-blocking": 12,
}


@functools.lru_cache(maxsize=None)
def _oracle_campaign(arch_name):
    """One campaign and its closed-form mutants per architecture."""
    arch = load_architecture(arch_name)
    spec = build_functional_spec(arch)
    derivation = symbolic_most_liberal(spec)
    mutants = [
        fault
        for fault in FaultInjector(spec, seed=3, derivation=derivation).standard_fault_set()
        if isinstance(fault.interlock, ClosedFormInterlock)
    ]
    campaign = FaultCampaign(
        arch,
        spec,
        profile=WorkloadProfile(length=60),
        num_programs=2,
        seed=3,
        derivation=derivation,
    )
    return campaign, mutants


@functools.lru_cache(maxsize=None)
def _oracle_record(arch_name, index):
    campaign, mutants = _oracle_campaign(arch_name)
    return campaign.run_fault(mutants[index])


class TestSimulationAgreesWithPropertyCheck:
    """Simulation with assertions never contradicts the exhaustive check.

    Both routes of FaultCampaign.run_fault judge the same mutant: whatever
    the testbench sees must be a defect the property checker proves.
    """

    @pytest.mark.parametrize(
        "arch_name,index",
        [(name, index) for name, count in ORACLE_MUTANTS.items() for index in range(count)],
        ids=str,
    )
    def test_simulation_evidence_implies_refutation(self, arch_name, index):
        record = _oracle_record(arch_name, index)
        if record.vacuous:
            assert not record.detected_by_simulation
            assert record.physical_hazards == 0
        if record.physical_hazards:
            # The functional assertions flag every hazard.
            assert record.functional_violations > 0
        if record.functional_violations or record.physical_hazards:
            assert record.property_check_functional_failed
        if record.performance_violations:
            campaign, _ = _oracle_campaign(arch_name)
            performance = campaign.property_checker.check_performance(record.fault.interlock)
            assert not performance.all_hold()

    @pytest.mark.parametrize("arch_name", ["dac2002-example", "risc5", "fam-r4w2d5s1-bypass"])
    def test_refuted_specification_implies_refuted_equivalence(self, arch_name):
        """A mutant either specification refutes is not the derived interlock.

        run_fault decides only the functional and the equivalence claims;
        this pins that the performance claims it skips could add nothing.
        """
        campaign, mutants = _oracle_campaign(arch_name)
        checker = campaign.property_checker
        refuted = 0
        for mutant in mutants:
            functional = checker.check_functional(mutant.interlock)
            performance = checker.check_performance(mutant.interlock)
            equivalence = checker.check_equivalence_with_derived(mutant.interlock)
            if not (functional.all_hold() and performance.all_hold()):
                refuted += 1
                assert not equivalence.all_hold(), mutant.describe()
        assert refuted > 0

    @pytest.mark.parametrize("arch_name", sorted(ORACLE_MUTANTS))
    def test_simulation_detects_a_real_mutant(self, arch_name):
        _, mutants = _oracle_campaign(arch_name)
        assert len(mutants) == ORACLE_MUTANTS[arch_name]
        records = [_oracle_record(arch_name, index) for index in range(len(mutants))]
        assert any(
            record.detected_by_simulation and not record.vacuous for record in records
        )


class TestSynthesis:
    def test_netlist_matches_closed_forms_on_random_inputs(self, example_spec, example_interlock):
        import random

        synthesis = synthesize_interlock(example_spec)
        netlist = synthesis.interlock()
        rng = random.Random(0)
        for _ in range(40):
            inputs = {name: bool(rng.getrandbits(1)) for name in example_spec.input_signals()}
            assert moe_of(netlist, inputs) == moe_of(example_interlock, inputs)

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
        behavioural = behavioural_verilog(
            synthesis.spec, synthesis.derivation, synthesis.module.name
        )
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

    def test_gate_count_positive(self, example_spec, firepath_spec):
        for spec in (example_spec, firepath_spec):
            synthesis = synthesize_interlock(spec)
            assert synthesis.gate_count() > len(spec.moe_flags())


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
        assert summary.detected_by_any() == summary.total()
        # Initialisation faults lie outside the combinational property
        # check; the check classifies every fault it applies to.
        assert summary.property_check_applicable(FaultClass.INITIALISATION) == 0
        applicable = summary.property_check_applicable()
        assert summary.detected_by_property_check() == applicable
        assert summary.property_correctly_classified() == applicable
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
