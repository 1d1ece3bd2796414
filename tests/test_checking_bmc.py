"""Tests for bounded model checking of sequential interlock behaviour (repro.checking.bmc)."""

import functools

import pytest

from repro.archs import load_architecture
from repro.assertions import AssertionKind, monitor_trace, testbench_assertions
from repro.checking import (
    BoundedModelChecker,
    CombinationalModel,
    PropertyChecker,
    RegisteredGrantModel,
    StuckResetModel,
    environment_formula,
    timed_name,
)
from repro.expr import Var
from repro.faults import FaultInjector
from repro.pipeline import ClosedFormInterlock, simulate
from repro.pipeline.signals import gnt_name, req_name
from repro.spec import (
    FunctionalSpec,
    StallClause,
    build_functional_spec,
    symbolic_most_liberal,
)
from repro.expr import parse_expr
from repro.workloads import WorkloadGenerator, WorkloadProfile


@pytest.fixture(scope="module")
def tiny_spec():
    """A two-stage pipe: completion stage on a bus grant, issue stage behind it."""
    return FunctionalSpec(
        name="tiny",
        clauses=[
            StallClause(moe="p.2.moe", condition=parse_expr("p.req & !p.gnt")),
            StallClause(moe="p.1.moe", condition=parse_expr("p.1.rtm & !p.2.moe")),
        ],
        inputs=["p.req", "p.gnt", "p.1.rtm"],
    )


@pytest.fixture(scope="module")
def tiny_model(tiny_spec):
    derivation = symbolic_most_liberal(tiny_spec)
    return CombinationalModel(derivation.moe_expressions, name="tiny-derived")


class TestTimedNaming:
    def test_timed_name_format(self):
        assert timed_name("p.1.moe", 3) == "p.1.moe@3"

    def test_outputs_at_use_timed_inputs(self, tiny_model):
        outputs = tiny_model.outputs_at(2)
        for expression in outputs.values():
            assert all(name.endswith("@2") for name in expression.variables())


class TestCombinationalModel:
    def test_derived_interlock_passes_both_checks(self, tiny_spec, tiny_model):
        checker = BoundedModelChecker(tiny_spec)
        assert checker.check_functional(tiny_model, bound=4).holds
        assert checker.check_performance(tiny_model, bound=4).holds

    def test_example_architecture_derived_interlock_passes(self, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        model = CombinationalModel(derivation.moe_expressions, name="example-derived")
        checker = BoundedModelChecker(example_spec)
        assert checker.check_functional(model, bound=2).holds
        assert checker.check_performance(model, bound=2).holds

    def test_claims_counted(self, tiny_spec, tiny_model):
        checker = BoundedModelChecker(tiny_spec)
        result = checker.check_functional(tiny_model, bound=3)
        assert result.claims_checked == 3 * len(tiny_spec.moe_flags())

    def test_never_stalling_model_fails_functionally(self, tiny_spec):
        model = CombinationalModel(
            {"p.2.moe": parse_expr("True"), "p.1.moe": parse_expr("True")},
            name="never-stalls",
        )
        checker = BoundedModelChecker(tiny_spec)
        result = checker.check_functional(model, bound=2)
        assert not result.holds
        violation = result.first_violation()
        assert violation.cycle == 0
        assert violation.kind == "functional"


class TestStuckResetModel:
    def test_forced_low_reset_is_a_performance_bug(self, tiny_spec, tiny_model):
        model = StuckResetModel(tiny_model, forced_values={"p.2.moe": False}, cycles=2)
        checker = BoundedModelChecker(tiny_spec, stop_at_first=False)
        result = checker.check_performance(model, bound=4)
        assert not result.holds
        cycles = {violation.cycle for violation in result.violations}
        # Violations occur only while the reset value is forced, at the forced stage.
        assert cycles and cycles <= {0, 1}
        assert {violation.moe for violation in result.violations} == {"p.2.moe"}
        # The upstream stage's closed form still assumes the derived value of
        # p.2.moe, so during the forced window it can move into a stage that
        # is not accepting — a genuine functional hazard, also bounded by the
        # reset window (exactly what the paper's "incorrect initialisation
        # values" bugs look like).
        functional = checker.check_functional(model, bound=4)
        assert all(violation.cycle < 2 for violation in functional.violations)

    def test_forced_high_reset_is_a_functional_bug(self, tiny_spec, tiny_model):
        model = StuckResetModel(tiny_model, forced_values={"p.2.moe": True}, cycles=1)
        checker = BoundedModelChecker(tiny_spec)
        result = checker.check_functional(model, bound=3)
        assert not result.holds
        assert result.first_violation().cycle == 0

    def test_violation_witness_is_cycle_stamped(self, tiny_spec, tiny_model):
        model = StuckResetModel(tiny_model, forced_values={"p.2.moe": False}, cycles=1)
        checker = BoundedModelChecker(tiny_spec)
        result = checker.check_performance(model, bound=2)
        violation = result.first_violation()
        assert violation is not None
        witness = violation.witness_at(violation.cycle)
        # The witness names plain (untimed) signals of the failing cycle.
        assert all("@" not in name for name in witness)

    def test_clean_after_reset_window(self, tiny_spec, tiny_model):
        model = StuckResetModel(tiny_model, forced_values={"p.2.moe": False}, cycles=2)
        checker = BoundedModelChecker(tiny_spec, stop_at_first=False)
        result = checker.check_performance(model, bound=5)
        assert all(violation.cycle < 2 for violation in result.violations)

    def test_example_bad_reset_refuted_exactly_in_window(self, example_arch, example_spec):
        # The paper's "incorrect initialisation values": a completion flag
        # held low after reset is refuted formally, and the simulation
        # testbench route agrees.
        reset_cycles, target = 3, "long.4.moe"
        clean = CombinationalModel.from_derivation(symbolic_most_liberal(example_spec))
        faulty = StuckResetModel(clean, forced_values={target: False}, cycles=reset_cycles)
        checker = BoundedModelChecker(
            example_spec, environment=environment_formula(example_arch), stop_at_first=False
        )
        assert checker.check_performance(clean, bound=reset_cycles + 2).holds
        result = checker.check_performance(faulty, bound=reset_cycles + 2)
        assert {violation.cycle for violation in result.violations} == set(range(reset_cycles))
        assert {violation.moe for violation in result.violations} == {target}

        fault = FaultInjector(example_spec, seed=5).bad_reset_fault(
            target, value=False, cycles=reset_cycles
        )
        program = WorkloadGenerator(example_arch, seed=5).generate(WorkloadProfile(length=30))
        trace = simulate(example_arch, fault.interlock, program)
        report = monitor_trace(trace, testbench_assertions(example_spec))
        performance = [
            violation
            for violation in report.violations
            if violation.assertion.kind is AssertionKind.PERFORMANCE
        ]
        assert performance
        assert all(violation.cycle < reset_cycles for violation in performance)


class TestRegisteredGrantModel:
    def test_registered_grant_is_conservative(self, example_arch, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        base = CombinationalModel(derivation.moe_expressions, name="example-derived")
        model = RegisteredGrantModel(base, example_arch)
        checker = BoundedModelChecker(
            example_spec, environment=environment_formula(example_arch), stop_at_first=False
        )
        # Functionally safe: it only ever stalls more.
        assert checker.check_functional(model, bound=2).holds
        # But it stalls a completion stage whose grant arrived with a
        # same-cycle request — a performance bug from cycle 0 onwards.
        result = checker.check_performance(model, bound=2)
        assert not result.holds
        completion_flags = {"long.4.moe", "short.2.moe"}
        assert {violation.moe for violation in result.violations} & completion_flags

    def test_cycle_zero_never_grants(self, example_arch, example_spec):
        derivation = symbolic_most_liberal(example_spec)
        base = CombinationalModel(derivation.moe_expressions)
        model = RegisteredGrantModel(base, example_arch)
        outputs = model.outputs_at(0)
        # At cycle 0 no request can be pending from "the previous cycle", so
        # the grant variable must not appear in any output expression.
        for expression in outputs.values():
            assert timed_name("long.gnt", 0) not in expression.variables()


class TestReporting:
    def test_describe_mentions_bound_and_kind(self, tiny_spec, tiny_model):
        checker = BoundedModelChecker(tiny_spec)
        text = checker.check_functional(tiny_model, bound=2).describe()
        assert "functional" in text
        assert "bound 2" in text

    def test_unknown_kind_rejected(self, tiny_spec, tiny_model):
        checker = BoundedModelChecker(tiny_spec)
        with pytest.raises(ValueError):
            checker.check(tiny_model, bound=1, kind="liveness")

    def test_checker_takes_no_backend(self, tiny_spec):
        # Every claim is a SAT query; there is no second engine to select.
        with pytest.raises(TypeError):
            BoundedModelChecker(tiny_spec, backend="sat")


# -- cross-engine agreement ---------------------------------------------------------------

CROSS_ENGINE_TARGETS = ("dac2002-example", "fam-r4w2d5s1-bypass")


@functools.lru_cache(maxsize=None)
def _cross_engine_setup(arch_name):
    """The reference and every closed-form standard fault, with both checkers."""
    arch = load_architecture(arch_name)
    spec = build_functional_spec(arch)
    injector = FaultInjector(spec, seed=3)
    interlocks = [injector.reference] + [
        fault.interlock
        for fault in injector.standard_fault_set()
        if isinstance(fault.interlock, ClosedFormInterlock)
    ]
    bmc = BoundedModelChecker(
        spec, environment=environment_formula(arch), stop_at_first=False
    )
    checker = PropertyChecker(spec, architecture=arch, derivation=injector.derivation)
    return interlocks, bmc, checker, injector


def _cross_engine_cases():
    for arch_name in CROSS_ENGINE_TARGETS:
        interlocks, _, _, _ = _cross_engine_setup(arch_name)
        for index, interlock in enumerate(interlocks):
            yield pytest.param(arch_name, index, id=f"{arch_name}-{index}-{interlock.name}")


@pytest.mark.parametrize("arch_name, index", _cross_engine_cases())
def test_bmc_and_bdd_checker_name_the_same_violations(arch_name, index):
    """SAT-based BMC at bound 1 and the BDD property checker agree per mutant."""
    interlocks, bmc, checker, _ = _cross_engine_setup(arch_name)
    interlock = interlocks[index]
    model = CombinationalModel(interlock.expressions())
    for kind in ("functional", "performance"):
        bmc_flags = sorted({violation.moe for violation in bmc.check(model, 1, kind).violations})
        bdd_flags = getattr(checker, f"check_{kind}")(interlock).failing_stages()
        assert bmc_flags == bdd_flags, kind


# Stalls on input patterns the environment rules out: a grant to a pipe that
# did not request the bus, or two grants on one bus.
ENVIRONMENT_TRIGGERS = ("grant-without-request", "two-grants")


def _environment_trigger(arch_name, trigger):
    bus = load_architecture(arch_name).buses[0]
    first, second = bus.priority[:2]
    if trigger == "grant-without-request":
        return Var(gnt_name(first)) & ~Var(req_name(first))
    return Var(gnt_name(first)) & Var(gnt_name(second))


@pytest.mark.parametrize("trigger", ENVIRONMENT_TRIGGERS)
@pytest.mark.parametrize("moe_index", (0, 1))
@pytest.mark.parametrize("arch_name", CROSS_ENGINE_TARGETS)
def test_stalls_the_environment_rules_out_are_no_violation(arch_name, moe_index, trigger):
    """Both engines decide performance under the environment, not over all inputs."""
    _, bmc, checker, injector = _cross_engine_setup(arch_name)
    moe = bmc.spec.moe_flags()[moe_index]
    fault = injector.extra_stall_fault(moe, trigger=_environment_trigger(arch_name, trigger))
    model = CombinationalModel(fault.interlock.expressions())
    # The mutant really stalls on the trigger: without the environment the
    # extra stall is a performance violation of the target stage.
    unconstrained = BoundedModelChecker(bmc.spec, stop_at_first=False)
    assert moe in {v.moe for v in unconstrained.check(model, 1, "performance").violations}
    for kind in ("functional", "performance"):
        assert bmc.check(model, 1, kind).violations == [], kind
        assert getattr(checker, f"check_{kind}")(fault.interlock).failing_stages() == [], kind
