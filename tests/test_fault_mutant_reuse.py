"""Each fault mutant is derived, materialized and decided once per derivation.

A mutant depends on the specification, the target stage and the mutated
condition, not on the workload seed, so the derivation keeps it and the
property checker keeps its reports while it lives.  These tests pin that
reuse changes no per-fault outcome, that the kept mutants go with their
derivation, and that the checker's reports go with their interlock.
"""

import gc
import weakref

import pytest

from repro.archs import load_architecture
from repro.campaign import JobSpec, clear_warm_state, run_verification_job
from repro.campaign import runner
from repro.campaign.runner import run_traced_job
from repro.checking import PropertyChecker
from repro.faults import FaultCampaign, FaultInjector
from repro.obs import get_registry
from repro.pipeline import ClosedFormInterlock
from repro.spec import build_functional_spec, symbolic_most_liberal
from repro.workloads import WorkloadProfile

SEEDS = range(20)


@pytest.fixture(autouse=True)
def cold_workers():
    clear_warm_state()
    yield
    clear_warm_state()


def mutants_seen(source):
    counters = get_registry().snapshot()["counters"]
    entry = counters.get(f'repro_fault_mutants_total{{source="{source}"}}')
    return entry[2] if entry else 0


def campaign(architecture, spec, seed, derivation, checker=None):
    return FaultCampaign(
        architecture,
        spec,
        profile=WorkloadProfile(length=24),
        num_programs=1,
        seed=seed,
        max_cycles=292,
        derivation=derivation,
        property_checker=checker,
    )


def outcome(record, checker):
    """Everything a job reads off a detection record, and the reports behind it."""
    reports = []
    if isinstance(record.fault.interlock, ClosedFormInterlock):
        for check in (checker.check_functional, checker.check_equivalence_with_derived):
            reports.append(
                [
                    (result.name, result.holds, result.counterexample)
                    for result in check(record.fault.interlock).results
                ]
            )
    return (
        record.as_row(),
        record.detected_by_any,
        record.vacuous,
        record.simulation_classification,
        record.property_classification,
        record.classified_correctly,
        record.property_classified_correctly,
        reports,
    )


@pytest.mark.parametrize(
    "arch",
    ["dac2002-example", "risc5", "fam-r2w1d3s1-bypass", "fam-r4w1d4s1-blocking"],
)
def test_reused_mutants_give_a_fresh_injectors_verdicts(arch):
    architecture = load_architecture(arch)
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    checker = PropertyChecker(spec, architecture=architecture, derivation=derivation)
    sources = []
    for seed in SEEDS:
        faults = FaultInjector(spec, seed=seed, derivation=derivation).standard_fault_set(
            limit=4
        )
        sources += [fault.mutant for fault in faults]
        warm = campaign(architecture, spec, seed, derivation, checker).run(faults)

        injector = FaultInjector(spec, seed=seed)
        fresh_campaign = campaign(architecture, spec, seed, injector.derivation)
        fresh = fresh_campaign.run(injector.standard_fault_set(limit=4))
        assert [outcome(record, checker) for record in warm.records] == [
            outcome(record, fresh_campaign.property_checker) for record in fresh.records
        ], (arch, seed)
    # The seed-independent mutants were derived once and reused after.
    assert sources.count("reused") >= 3 * (len(SEEDS) - 1)
    assert sources.count("derived") == len(derivation.mutants)


def test_a_second_injector_derives_nothing():
    spec = build_functional_spec(load_architecture("fam-r2w1d3s1-bypass"))
    derivation = symbolic_most_liberal(spec)
    derived, reused = mutants_seen("derived"), mutants_seen("reused")
    first = FaultInjector(spec, seed=3, derivation=derivation).standard_fault_set()
    closed = [f for f in first if isinstance(f.interlock, ClosedFormInterlock)]
    assert {f.mutant for f in closed} == {"derived"}
    assert mutants_seen("derived") - derived == len(closed) == len(derivation.mutants)

    again = FaultInjector(spec, seed=3, derivation=derivation).standard_fault_set()
    assert [f.describe() for f in again] == [f.describe() for f in first]
    assert [f.interlock for f in again if f.mutant] == [f.interlock for f in closed]
    assert {f.mutant for f in again if f.mutant} == {"reused"}
    assert mutants_seen("reused") - reused == len(closed)
    # A fault that wraps the reference derives no mutant and says so.
    assert all(
        f.mutant is None for f in first if not isinstance(f.interlock, ClosedFormInterlock)
    )


def test_a_reused_mutant_is_decided_once(monkeypatch):
    architecture = load_architecture("fam-r2w1d3s1-bypass")
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    checker = PropertyChecker(spec, architecture=architecture, derivation=derivation)
    proofs = []
    prove = checker._prove
    monkeypatch.setattr(checker, "_prove", lambda claim: proofs.append(claim) or prove(claim))
    fault = FaultInjector(spec, seed=1, derivation=derivation).missing_term_fault(
        spec.clauses[0].moe, term_index=0
    )
    first = campaign(architecture, spec, 1, derivation, checker).run_fault(fault)
    decided = len(proofs)
    # The mutant is vacuous: of its 3 functional and 3 equivalence claims,
    # 2 fold to TRUE without the environment and 4 are proved under it.
    assert len(spec.clauses) == 3
    assert (decided, checker.claims) == (4, 6)
    assert first.vacuous

    again = FaultInjector(spec, seed=2, derivation=derivation).missing_term_fault(
        spec.clauses[0].moe, term_index=0
    )
    assert again.interlock is fault.interlock and again.mutant == "reused"
    second = campaign(architecture, spec, 2, derivation, checker).run_fault(again)
    assert (len(proofs), checker.claims) == (decided, 6)
    assert second.property_check_functional_failed == first.property_check_functional_failed
    assert (
        second.property_check_equivalence_failed
        == first.property_check_equivalence_failed
    )


def test_a_dropped_interlock_leaves_the_report_cache():
    architecture = load_architecture("fam-r2w1d3s1-bypass")
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    checker = PropertyChecker(spec, architecture=architecture, derivation=derivation)
    interlock = ClosedFormInterlock.from_derivation(derivation)
    functional = checker.check_functional(interlock)
    equivalence = checker.check_equivalence_with_derived(interlock)
    assert functional.all_hold() and equivalence.all_hold()
    assert checker.check_functional(interlock) is functional
    assert checker.check_equivalence_with_derived(interlock) is equivalence
    assert len(checker._reports) == 1

    gone = weakref.ref(interlock)
    del interlock
    gc.collect()
    assert gone() is None
    assert len(checker._reports) == 0


def _warm_mutant(arch):
    """Weak references to the warm derivation and one of its kept mutants."""
    derivation = runner._arch_state(arch)["derivation"]
    assert derivation.mutants
    _, interlock = next(iter(derivation.mutants.values()))
    return weakref.ref(derivation), weakref.ref(interlock)


def _all_dead(refs):
    gc.collect()
    return all(ref() is None for ref in refs)


FAULTS_ONLY = dict(stages=("faults",), workload_length=24)


def test_mutants_are_dropped_with_the_warm_state():
    arch = "fam-r2w1d3s1-bypass"
    assert run_verification_job(JobSpec(arch=arch, **FAULTS_ONLY)).ok
    refs = _warm_mutant(arch)
    assert not _all_dead(refs)
    clear_warm_state()
    assert _all_dead(refs)


def test_mutants_are_dropped_when_the_derivation_is_evicted(monkeypatch):
    monkeypatch.setattr(runner, "_WARM_CAPACITY", 1)
    first, second = "fam-r2w1d3s1-bypass", "fam-r2w1d3s1-blocking"
    assert run_verification_job(JobSpec(arch=first, **FAULTS_ONLY)).ok
    refs = _warm_mutant(first)
    assert run_verification_job(JobSpec(arch=second, **FAULTS_ONLY)).ok
    assert list(runner._WARM_STATE) == [second]
    assert _all_dead(refs)


def test_mutants_are_dropped_when_the_end_of_job_collect_fails(monkeypatch):
    from repro.symbolic import SymbolicContext

    arch = "fam-r2w1d3s1-bypass"
    assert run_verification_job(JobSpec(arch=arch, **FAULTS_ONLY)).ok
    refs = _warm_mutant(arch)

    def exhausted(self):
        raise MemoryError("simulated exhaustion while collecting")

    monkeypatch.setattr(SymbolicContext, "collect", exhausted)
    failed = run_verification_job(JobSpec(arch=arch, workload_seed=1, **FAULTS_ONLY))
    assert not failed.ok and "MemoryError" in failed.error
    assert "derivation" not in runner._arch_state(arch)
    assert _all_dead(refs)


def test_fault_spans_say_whether_the_mutant_was_reused():
    arch = "fam-r2w1d3s1-bypass"

    def fault_spans(seed):
        result = run_traced_job(
            JobSpec(arch=arch, workload_seed=seed, **FAULTS_ONLY), trace={"id": "mutants"}
        )
        assert result.ok, result.error
        return [s["attrs"] for s in result.trace_spans if s["name"] == "fault"]

    first = fault_spans(0)
    assert [attrs["mutant"] for attrs in first] == ["derived"] * 4
    second = fault_spans(1)
    assert [attrs["mutant"] for attrs in second][1:] == ["reused"] * 3
