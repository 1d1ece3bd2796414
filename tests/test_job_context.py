"""One BDD context per job: every stage decides in the derivation's context.

A verification job derives its specification once, into a context ordered
by :func:`repro.spec.derivation.derivation_order`.  The Section 3
properties, maximality, the obligations, the fault mutants and their
property checks all run in that context, and the runner collects it at the
end of every job so a warm worker's context does not grow.  These tests
pin that design with counts, not wall times.
"""

import pytest

from repro.archs import load_architecture
from repro.bdd.manager import BddManager
from repro.campaign import JobSpec, clear_warm_state, run_verification_job
from repro.campaign import runner
from repro.campaign.runner import run_traced_job
from repro.checking import PropertyChecker
from repro.expr import Var, substitute
from repro.faults import FaultInjector
from repro.pipeline import ClosedFormInterlock
from repro.spec import (
    FunctionalSpec,
    StallClause,
    build_functional_spec,
    conservative_variant,
    symbolic_most_liberal,
)

FAMILY_ARCH = "fam-r4w2d5s1-bypass"


def warm_context(arch):
    return runner._arch_state(arch)["derivation"].context


@pytest.fixture(autouse=True)
def cold_workers():
    clear_warm_state()
    yield
    clear_warm_state()


def test_full_job_constructs_exactly_one_manager(monkeypatch):
    built = []
    original = BddManager.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BddManager, "__init__", counting_init)
    result = run_traced_job(JobSpec(arch=FAMILY_ARCH), trace={"id": "one-context"})
    assert result.ok, result.error
    assert len(built) == 1
    assert built[0] is warm_context(FAMILY_ARCH).manager
    # Every stage span carries its own kernel delta on that one manager;
    # the properties stage did the derivation, so it owns the allocation.
    stage_spans = {
        span["name"]: span["attrs"]
        for span in result.trace_spans
        if span["attrs"].get("kind") == "stage"
    }
    assert set(stage_spans) == set(JobSpec(arch=FAMILY_ARCH).stages)
    assert all("kernel" in attrs for attrs in stage_spans.values())
    assert stage_spans["properties"]["kernel"]["cache_misses"] > 0
    derive = result.stage("derive").details
    assert derive["source"] == "computed"
    assert derive["kernel"] == stage_spans["derive"]["kernel"]


def test_warm_jobs_leave_the_context_the_same_size():
    # The first pass derives each distinct fault mutant once and keeps it
    # in the context; the extra-stall trigger depends on the seed, so the
    # context may grow until every seed's mutant has been seen.
    seeds = range(10)
    for seed in seeds:
        result = run_verification_job(JobSpec(arch=FAMILY_ARCH, workload_seed=seed))
        assert result.ok, result.error
    settled = warm_context(FAMILY_ARCH).manager.stats().live_nodes
    # A second pass over the same seeds derives nothing new: every job
    # leaves exactly as many live nodes as it found.
    live = []
    for seed in seeds:
        result = run_verification_job(JobSpec(arch=FAMILY_ARCH, workload_seed=seed))
        assert result.ok, result.error
        live.append(warm_context(FAMILY_ARCH).manager.stats().live_nodes)
    assert live == [settled] * len(seeds), (settled, live)
    # The job collected its own garbage: nothing is left to reclaim.
    assert warm_context(FAMILY_ARCH).collect() == 0


def test_failed_end_of_job_collect_fails_the_job_not_the_caller(monkeypatch):
    from repro.symbolic import SymbolicContext

    original = SymbolicContext.collect

    def exhausted(self):
        raise MemoryError("simulated exhaustion while collecting")

    monkeypatch.setattr(SymbolicContext, "collect", exhausted)
    failed = run_verification_job(JobSpec(arch="dac2002-example"))
    assert not failed.ok
    assert "MemoryError" in failed.error
    # The stages themselves passed; only the cleanup failed.
    assert all(stage.ok for stage in failed.stages)
    # The context that could not be collected is not reused, nor is the
    # checker that decides in it.
    assert "derivation" not in runner._arch_state("dac2002-example")
    assert "checker" not in runner._arch_state("dac2002-example")

    monkeypatch.setattr(SymbolicContext, "collect", original)
    second = run_verification_job(JobSpec(arch="dac2002-example"))
    assert second.ok, second.error
    assert second.stage("derive").details["source"] == "computed"


def test_failed_collect_keeps_the_first_stage_error(monkeypatch):
    from repro.symbolic import SymbolicContext

    def broken_stage(state, job, store):
        raise ValueError("simulated stage failure")

    def exhausted(self):
        raise MemoryError("simulated exhaustion while collecting")

    monkeypatch.setitem(runner._STAGE_IMPLS, "maximality", broken_stage)
    monkeypatch.setattr(SymbolicContext, "collect", exhausted)
    failed = run_verification_job(JobSpec(arch="dac2002-example"))
    assert not failed.ok
    assert "ValueError: simulated stage failure" in failed.error
    assert "MemoryError" not in failed.error
    assert failed.stages[-1].name == "maximality" and not failed.stages[-1].ok
    assert "derivation" not in runner._arch_state("dac2002-example")


def _verdicts(result):
    return [
        (stage.name, stage.ok, {k: v for k, v in stage.details.items() if k != "kernel"})
        for stage in result.stages
    ]


def test_environment_is_built_once_per_warm_derivation(monkeypatch):
    from repro.checking import property_check

    built = []
    real = property_check.environment_assumptions

    def counting(architecture):
        built.append(architecture)
        return real(architecture)

    monkeypatch.setattr(property_check, "environment_assumptions", counting)
    cold = run_verification_job(JobSpec(arch="dac2002-example", workload_seed=2))
    assert cold.ok, cold.error
    # The obligations and faults stages share one checker.
    assert len(built) == 1

    clear_warm_state()
    del built[:]
    first = run_verification_job(JobSpec(arch="dac2002-example", workload_seed=1))
    second = run_verification_job(JobSpec(arch="dac2002-example", workload_seed=2))
    assert first.ok and second.ok
    assert len(built) == 1
    assert runner._arch_state("dac2002-example")["checker"] is not None
    # Reusing the checker changes no verdict.
    assert _verdicts(second)[2:] == _verdicts(cold)[2:]


def test_firepath_stages_before_faults_stay_small():
    stages = ("properties", "derive", "maximality", "obligations")
    result = run_verification_job(JobSpec(arch="firepath-like", stages=stages))
    assert result.ok, result.error
    assert [stage.name for stage in result.stages] == list(stages)
    properties = result.stage("properties").details
    assert properties["property-2-disjunction-closure"] is True
    # A declaration-order context ran out of memory in the properties
    # stage, and lifting the environment for the obligations took 3M
    # nodes; the job context needs about 23k slots.  A count, not a time.
    assert warm_context("firepath-like").manager.stats().allocated_slots < 50_000


def test_bdd_and_sat_agree_on_every_standard_mutant():
    architecture = load_architecture("dac2002-example")
    spec = build_functional_spec(architecture)
    injector = FaultInjector(spec)
    mutants = [
        fault.interlock
        for fault in injector.standard_fault_set()
        if isinstance(fault.interlock, ClosedFormInterlock)
    ]
    assert mutants
    assert all(m.context is injector.derivation.context for m in mutants)
    checkers = {
        backend: PropertyChecker(
            spec, architecture, backend=backend, derivation=injector.derivation
        )
        for backend in ("bdd", "sat")
    }
    for mutant in mutants:
        for check in (
            "check_functional",
            "check_performance",
            "check_equivalence_with_derived",
        ):
            bdd, sat = (
                [result.holds for result in getattr(checker, check)(mutant).results]
                for checker in checkers.values()
            )
            assert bdd == sat, (mutant.name, check)


@pytest.mark.parametrize("implementation", ["derived", "conservative"])
def test_bdd_and_sat_agree_claim_by_claim_on_firepath(implementation):
    # The SAT backend decides ``environment → claim`` on the whole
    # environment formula; its one-hot groups no longer encode pairwise,
    # so the oracle runs at FirePath scale.
    architecture = load_architecture("firepath-like")
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    if implementation == "derived":
        interlock = ClosedFormInterlock.from_derivation(derivation)
    else:
        interlock = ClosedFormInterlock.from_spec(
            conservative_variant(architecture), name="conservative-variant"
        )
    verdicts = {}
    for backend in ("bdd", "sat"):
        checker = PropertyChecker(spec, architecture, backend=backend, derivation=derivation)
        verdicts[backend] = [
            (result.name, result.moe, result.holds)
            for check in (
                checker.check_functional,
                checker.check_performance,
                checker.check_equivalence_with_derived,
            )
            for result in check(interlock).results
        ]
    assert verdicts["bdd"] == verdicts["sat"]
    refuted = [claim for claim in verdicts["bdd"] if not claim[2]]
    assert bool(refuted) == (implementation == "conservative")


def test_non_monotone_spec_reports_failing_checks(monkeypatch):
    def flipped_spec(architecture):
        spec = build_functional_spec(architecture)
        moe_set = set(spec.moe_flags())
        target = next(c for c in spec.clauses if c.condition.variables() & moe_set)
        flag = sorted(target.condition.variables() & moe_set)[0]
        clauses = [
            StallClause(
                moe=clause.moe,
                condition=substitute(clause.condition, {flag: ~Var(flag)}),
                label=clause.label,
            )
            if clause is target
            else clause
            for clause in spec.clauses
        ]
        return FunctionalSpec(
            name=f"{spec.name}-flipped",
            clauses=clauses,
            inputs=list(spec.inputs),
            metadata=dict(spec.metadata),
        )

    monkeypatch.setattr(runner, "build_functional_spec", flipped_spec)
    result = run_verification_job(
        JobSpec(arch="fam-r2w1d3s1-bypass", stages=("properties",))
    )
    assert result.error is None
    assert not result.ok
    details = result.stage("properties").details
    assert details["monotonicity-of-stall-conditions"] is False
    assert details["semantic-monotonicity"] is False
    assert details["property-3-most-liberal-satisfies"] is False
    assert details["counterexamples"]["semantic-monotonicity"]
