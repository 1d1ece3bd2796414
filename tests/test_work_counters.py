"""The work the paper's flow does, pinned exactly: the performance gate.

Each scenario runs one layer at a small size through public entry points
only: the ``MOE = ¬F(¬MOE)`` fixed point with its ISOP covers, the
simulator, the property checker, the faults stage, a sharded campaign and
the bounded checker.  It reads counters the code already exposes (BDD
manager stats, the checker's kernel stats, fault-campaign and trace cycle
counts, the size of the simulated closed forms, claims the property
checker and a bounded check decided, and metrics-registry deltas) and
never a clock.  The counters do not depend on the host, the hash seed,
``REPRO_SANITIZE`` or ``REPRO_TRACE``, so the gate is exact equality: a
change that adds work fails even on a machine fast enough to hide it.

A change that moves the work on purpose pastes the entry each failing
scenario prints over its own in ``PINNED`` and says why in CHANGES.md.
Wall-clock time is the repository benchmark's job (``perfbench/run.py``).
"""

import json

import pytest

from repro.archs import example_architecture, firepath_like_architecture, load_architecture
from repro.campaign import clear_warm_state, family_sweep, run_campaign, shutdown_warm_pool
from repro.checking import (
    BoundedModelChecker,
    CombinationalModel,
    PropertyChecker,
    StuckResetModel,
    environment_assumptions,
    environment_formula,
)
from repro.faults import FaultCampaign, FaultInjector
from repro.obs import get_registry
from repro.pipeline import ClosedFormInterlock, PipelineSimulator
from repro.spec import build_functional_spec, conservative_variant, symbolic_most_liberal
from repro.spec.derivation import derivation_order
from repro.symbolic import SymbolicContext
from repro.workloads import WorkloadGenerator, WorkloadProfile

PINNED = {
    "derive_example_2r": {
        "live_nodes": 221,
        "op_cache_entries": 323,
        "cache_misses": 74
    },
    "derive_firepath_2r": {
        "live_nodes": 821,
        "op_cache_entries": 1172,
        "cache_misses": 200
    },
    "derive_firepath_16r": {
        "live_nodes": 4283,
        "op_cache_entries": 5678,
        "cache_misses": 698,
        "artifact_bytes": 17686
    },
    "derive_firepath_32r": {
        "live_nodes": 8139,
        "op_cache_entries": 10734,
        "cache_misses": 1274,
        "artifact_bytes": 31118
    },
    "derive_firepath_96r": {
        "live_nodes": 23563,
        "op_cache_entries": 31000,
        "cache_misses": 3592,
        "artifact_bytes": 87962
    },
    "simulate_family": {
        "cycles": 1251,
        "live_nodes": 1503,
        "op_cache_entries": 2037,
        "cache_misses": 410,
        "cover_size": 880
    },
    "property_check": {
        "live_nodes": 571,
        "op_cache_entries": 690,
        "cache_misses": 65
    },
    "faults_dac2002": {
        "live_nodes": 989,
        "op_cache_entries": 1207,
        "cache_misses": 313,
        "claims": 32,
        "simulated_cycles": 929,
        "stepped_cycles": 116
    },
    "environment_96r": {
        "live_nodes": 17910,
        "op_cache_entries": 17462,
        "cache_misses": 7118
    },
    "campaign_sweep": {
        "kernel_cache_misses": 1479,
        "kernel_cache_hits": 721,
        "derived_mutants": 16,
        "claims_folded": 118,
        "claims_proved": 18,
        "claims_refuted": 16,
        "jobs_ok": 8
    },
    "bmc_stuck_reset": {
        "claims_checked": 12
    }
}


def _kernel(stats):
    """The work counters of one BDD manager's ``stats().as_dict()``."""
    return {key: stats[key] for key in ("live_nodes", "op_cache_entries", "cache_misses")}


def _derive(arch, artifact=False):
    """The fixed point plus every closed form's and stall's ISOP cover.

    With ``artifact``, also the size of the derivation artifact with its
    covers, which the result store writes and every cold worker loads.
    """
    derivation = symbolic_most_liberal(build_functional_spec(arch))
    _ = derivation.moe_expressions
    derivation.stall_expressions()
    counters = _kernel(derivation.context.manager.stats().as_dict())
    if artifact:
        counters["artifact_bytes"] = len(derivation.to_artifact_bytes(include_covers=True))
    return counters


def simulate_family():
    """Reference interlocks on four family members, two fixed programs each.

    ``cover_size`` is the size of the closed forms the simulator compiles
    (``Expr.size()`` summed over each derivation's ``moe_expressions``),
    and the kernel counters, summed over the four derivations, are the
    work of deriving them and their ISOP covers.  A worse variable order
    moves the kernel counters at the same cycle count.
    """
    profile = WorkloadProfile(length=48, dependency_rate=0.5, wait_rate=0.1, interrupt_rate=0.05)
    counters = dict.fromkeys(("live_nodes", "op_cache_entries", "cache_misses", "cover_size"), 0)
    cycles = 0
    for name in (
        "fam-r4w2d5s1-bypass",
        "fam-r4w1d5s1-blocking",
        "fam-r2w2d5s1-blocking-ls-wait",
        "dac2002-example",
    ):
        arch = load_architecture(name)
        derivation = symbolic_most_liberal(build_functional_spec(arch))
        counters["cover_size"] += sum(
            expr.size() for expr in derivation.moe_expressions.values()
        )
        for key, value in _kernel(derivation.context.manager.stats().as_dict()).items():
            counters[key] += value
        simulator = PipelineSimulator(arch, ClosedFormInterlock.from_derivation(derivation))
        for seed in range(2):
            trace = simulator.run(WorkloadGenerator(arch, seed=seed).generate(profile))
            assert trace.hazard_free()
            cycles += trace.num_cycles()
    return {"cycles": cycles, **counters}


def property_check():
    """Functional, performance and equivalence checks of the conservative variant."""
    arch = example_architecture(num_registers=2)
    checker = PropertyChecker(build_functional_spec(arch), architecture=arch, backend="bdd")
    conservative = ClosedFormInterlock.from_spec(
        conservative_variant(arch), name="conservative-variant"
    )
    assert checker.check_functional(conservative).all_hold()
    assert not checker.check_equivalence_with_derived(conservative).all_hold()
    checker.check_performance(conservative)
    return _kernel(checker.kernel_stats())


def faults_dac2002():
    """A paper-example job's faults stage: 4 standard faults, one 24-instruction program."""
    arch = example_architecture()
    spec = build_functional_spec(arch)
    derivation = symbolic_most_liberal(spec)
    faults = FaultInjector(spec, seed=0, derivation=derivation).standard_fault_set(limit=4)
    campaign = FaultCampaign(
        arch,
        spec,
        profile=WorkloadProfile(length=24),
        num_programs=1,
        seed=0,
        max_cycles=24 * 8 + 100,
        derivation=derivation,
    )
    assert campaign.run(faults).detected_by_property_check() == len(faults)
    counters = _kernel(campaign.property_checker.kernel_stats())
    counters["claims"] = campaign.property_checker.claims
    counters["simulated_cycles"] = campaign.simulated_cycles
    counters["stepped_cycles"] = campaign.stepped_cycles
    return counters


def environment_96r():
    """The 96-register FirePath environment lifted one assumption at a time.

    This is the lift the BDD checker's environment partition does in the
    job context.  Each of its 14 one-hot groups is one linear-size
    ``at_most_one``; the pairwise form made it 301,414 live nodes, 255,926
    op-cache entries and 64,028 cache misses, quadratic in the registers.
    """
    arch = firepath_like_architecture(num_registers=96)
    context = SymbolicContext(derivation_order(build_functional_spec(arch)))
    for assumption in environment_assumptions(arch):
        context.lift(assumption)
    return _kernel(context.manager.stats().as_dict())


def campaign_sweep():
    """Eight family jobs, all six stages, two cold workers, no result store."""
    spec = family_sweep(
        name="work-counters",
        registers=(2,),
        widths=(1, 2),
        depths=(3, 4),
        styles=("bypass", "blocking"),
        workers=2,
        workload_length=24,
        max_faults=2,
    )
    registry = get_registry()
    before = registry.snapshot()
    assert run_campaign(spec, store=None, use_cache=False).all_ok()
    gained = {key: entry[2] for key, entry in registry.delta_since(before)["counters"].items()}
    return {
        name: gained.get(key, 0)
        for name, key in (
            ("kernel_cache_misses", "repro_kernel_cache_misses_total"),
            ("kernel_cache_hits", "repro_kernel_cache_hits_total"),
            ("derived_mutants", 'repro_fault_mutants_total{source="derived"}'),
            ("claims_folded", 'repro_checker_claims_total{outcome="folded"}'),
            ("claims_proved", 'repro_checker_claims_total{outcome="proved"}'),
            ("claims_refuted", 'repro_checker_claims_total{outcome="refuted"}'),
            ("jobs_ok", 'repro_campaign_jobs_total{outcome="ok"}'),
        )
    }


def bmc_stuck_reset():
    """A bound-2 performance check of the derived interlock with a stuck completion flag."""
    arch = example_architecture(num_registers=2)
    spec = build_functional_spec(arch)
    base = CombinationalModel(symbolic_most_liberal(spec).moe_expressions, name="example-derived")
    model = StuckResetModel(base, forced_values={spec.moe_flags()[-1]: False}, cycles=2)
    checker = BoundedModelChecker(spec, environment=environment_formula(arch), stop_at_first=False)
    result = checker.check_performance(model, bound=2)
    assert not result.holds
    return {"claims_checked": result.claims_checked}


SCENARIOS = {
    "derive_example_2r": lambda: _derive(example_architecture(num_registers=2)),
    "derive_firepath_2r": lambda: _derive(
        firepath_like_architecture(num_registers=2, deep_pipe_stages=4, loadstore_stages=3)
    ),
    "derive_firepath_16r": lambda: _derive(
        firepath_like_architecture(num_registers=16), artifact=True
    ),
    "derive_firepath_32r": lambda: _derive(
        firepath_like_architecture(num_registers=32), artifact=True
    ),
    "derive_firepath_96r": lambda: _derive(
        firepath_like_architecture(num_registers=96), artifact=True
    ),
    "simulate_family": simulate_family,
    "property_check": property_check,
    "faults_dac2002": faults_dac2002,
    "environment_96r": environment_96r,
    "campaign_sweep": campaign_sweep,
    "bmc_stuck_reset": bmc_stuck_reset,
}


@pytest.fixture
def cold_process_state():
    # Warm derivations and warm pool workers would answer from work an
    # earlier test did; the counters must not depend on test order.
    clear_warm_state()
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


def test_every_scenario_is_pinned():
    assert sorted(SCENARIOS) == sorted(PINNED)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_work_counters_match_the_pinned_table(name, cold_process_state):
    measured = SCENARIOS[name]()
    if measured != PINNED[name]:
        pytest.fail(
            f"work counters moved in {name}; if the change means it, replace its "
            f"entry in PINNED and say why in CHANGES.md:\n"
            f"{json.dumps({name: measured}, indent=4)[2:-2]}\n",
            pytrace=False,
        )
