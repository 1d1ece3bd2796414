"""The ``repro bench`` benchmark runner.

Times the paper-shaped workloads that exercise the symbolic kernel — the
fixed-point derivation, exhaustive enumeration, trace sweeps and the
property/bounded checkers — and writes the timings to a JSON file so each
PR leaves a trajectory (``BENCH_PR<n>.json``) the next one has to beat.

Two extra modes keep the runner usable in CI:

* ``--quick`` shrinks every scenario to a smoke-test size (seconds, not
  minutes) while still touching the same code paths;
* ``--check`` compares the fresh timings against a committed baseline file
  and exits non-zero when any scenario regressed beyond the tolerance — a
  lightweight performance gate.

Besides the timing, each result carries a ``metrics`` snapshot: whatever
the scenario's timed region added to the :mod:`repro.obs` registry
(campaign scenarios fold their workers' kernel/cache counters home), plus
scenario-specific collectors — the derivation benchmarks report live BDD
node counts, cache hit rates and GC/reorder activity, and the fault
campaign reports the size of its property checker's manager.  The snapshot is
informational (the ``--check`` gate compares only seconds); with
``--repeat`` the registry counters accumulate over all repetitions.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..analysis import coverage_of
from ..archs import example_architecture, firepath_like_architecture
from ..assertions import monitor_trace, testbench_assertions
from ..checking import (
    BoundedModelChecker,
    CombinationalModel,
    PropertyChecker,
    StuckResetModel,
    environment_formula,
)
from ..expr.evaluate import is_tautology_by_enumeration
from ..expr.transform import substitute
from ..faults import FaultCampaign, FaultInjector
from ..pipeline import ClosedFormInterlock, PipelineSimulator, simulate
from ..spec import build_functional_spec, conservative_variant, symbolic_most_liberal
from ..workloads import WorkloadGenerator, WorkloadProfile

SCHEMA_VERSION = 1


@dataclass
class Scenario:
    """One timed benchmark: a setup phase (untimed) and a run phase (timed).

    ``collect``, when given, receives the last run's return value after
    the timing stops and contributes scenario-specific entries to the
    result's ``metrics`` snapshot.
    """

    name: str
    description: str
    setup: Callable[[bool], Any]
    run: Callable[[Any], Any]
    meta: Dict[str, Any] = field(default_factory=dict)
    collect: Optional[Callable[[Any], Dict[str, Any]]] = None


@dataclass
class BenchResult:
    """Timing of one scenario."""

    name: str
    seconds: float
    repeat: int
    quick: bool
    meta: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        payload = {
            "seconds": round(self.seconds, 6),
            "repeat": self.repeat,
            "quick": self.quick,
            "meta": self.meta,
        }
        if self.metrics:
            payload["metrics"] = self.metrics
        return payload


# -- metric collectors -------------------------------------------------------------


def _kernel_metrics(derivation: Any) -> Dict[str, Any]:
    """Kernel health of an in-process derivation: nodes, hit rate, GC."""
    stats = derivation.context.manager.stats().as_dict()
    lookups = stats["cache_hits"] + stats["cache_misses"]
    return {
        "kernel_live_nodes": stats["live_nodes"],
        "kernel_cache_hit_rate": (
            round(stats["cache_hits"] / lookups, 4) if lookups else 0.0
        ),
        "kernel_gc_runs": stats["gc_runs"],
        "kernel_gc_reclaimed": stats["gc_reclaimed"],
        "kernel_reorder_runs": stats["reorder_runs"],
    }


def _faults_metrics(campaign: Any) -> Dict[str, Any]:
    """A fault campaign's property-checker manager and its simulated and stepped cycles."""
    stats = campaign.property_checker.kernel_stats()
    return {
        "checker_allocated_slots": stats["allocated_slots"],
        "checker_live_nodes": stats["live_nodes"],
        "checker_cache_misses": stats["cache_misses"],
        "sim_cycles": campaign.simulated_cycles,
        "sim_stepped_cycles": campaign.stepped_cycles,
    }


def _registry_delta_metrics(delta: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a registry counter delta for the BENCH JSON snapshot."""
    return {
        key: round(entry[2], 6)
        for key, entry in sorted(delta.get("counters", {}).items())
    }


# -- scenario definitions ----------------------------------------------------------


def _setup_derive_example(quick: bool):
    arch = example_architecture(num_registers=2 if quick else 8)
    return build_functional_spec(arch)


def _run_derive_example(spec):
    return symbolic_most_liberal(spec)


def _setup_derive_firepath(quick: bool):
    if quick:
        arch = firepath_like_architecture(
            num_registers=2, deep_pipe_stages=4, loadstore_stages=3
        )
    else:
        arch = firepath_like_architecture(num_registers=8)
    return build_functional_spec(arch)


def _run_derive_firepath(spec):
    return symbolic_most_liberal(spec)


def _setup_derive_firepath_full(quick: bool):
    # The FULL 16-register FirePath — the wall PR 1 left standing: the
    # expression-side lock-step candidates never finished flattening their
    # n-ary substitution residue, and the concatenated variable order made
    # the issue conditions' BDDs exponential in the register count (~1.7M
    # nodes each).  The SymbolicFunction derivation — pure BDD iteration
    # over a register-interleaved order — finishes in milliseconds, so the
    # quick and full sizes deliberately coincide.
    arch = firepath_like_architecture(num_registers=16)
    return build_functional_spec(arch)


def _run_derive_firepath_full(spec):
    derivation = symbolic_most_liberal(spec)
    # Materialize the full artifact chain the downstream consumers need:
    # minimized ISOP covers for every closed form and the cached negations
    # (the stall covers) — the timing includes extraction, not just the
    # fixed point.
    _ = derivation.moe_expressions  # property access materializes the covers
    derivation.stall_expressions()
    return derivation


def _setup_derive_family_64r(quick: bool):
    # Scoreboard-scale stress for the array kernel: the FirePath-like
    # machine with a 64-register scoreboard (quick: 32).  Register-indexed
    # signals dominate the variable count, so this measures how derivation
    # scales with unique-table pressure rather than pipeline depth.
    arch = firepath_like_architecture(num_registers=32 if quick else 64)
    return build_functional_spec(arch)


def _setup_derive_family_256r(quick: bool):
    # The 10x-scale headline size: a 256-register scoreboard (quick: 96),
    # ~16x the variable count of the paper's example.  Intractable for the
    # expression backend; the array kernel must keep it interactive.
    arch = firepath_like_architecture(num_registers=96 if quick else 256)
    return build_functional_spec(arch)


def _run_derive_family(spec):
    derivation = symbolic_most_liberal(spec)
    _ = derivation.moe_expressions  # property access materializes the covers
    derivation.stall_expressions()
    return derivation


def _setup_taut_enum(quick: bool):
    # A genuine tautology over the control inputs: the derived most liberal
    # moe assignment substituted back into the functional specification.
    arch = example_architecture(num_registers=2)
    spec = build_functional_spec(arch)
    derivation = symbolic_most_liberal(spec)
    formula = substitute(spec.functional_formula(), derivation.moe_expressions)
    keep = 12 if quick else 18
    names = sorted(formula.variables())
    if len(names) > keep:
        formula = substitute(formula, {name: False for name in names[keep:]})
    return formula


def _run_taut_enum(formula):
    if not is_tautology_by_enumeration(formula, max_vars=None):
        raise AssertionError("benchmark formula must be a tautology")
    return True


def _example_trace(quick: bool):
    arch = example_architecture()
    spec = build_functional_spec(arch)
    interlock = ClosedFormInterlock.from_derivation(symbolic_most_liberal(spec))
    length = 64 if quick else 512
    program = WorkloadGenerator(arch, seed=7).generate(WorkloadProfile(length=length))
    trace = simulate(arch, interlock, program)
    return arch, spec, trace


def _setup_coverage(quick: bool):
    _, spec, trace = _example_trace(quick)
    return spec, [trace] * (1 if quick else 8)


def _run_coverage(state):
    spec, traces = state
    return coverage_of(spec, traces)


def _setup_monitor(quick: bool):
    _, spec, trace = _example_trace(quick)
    return testbench_assertions(spec), trace, 1 if quick else 8


def _run_monitor(state):
    assertions, trace, reps = state
    report = None
    for _ in range(reps):
        report = monitor_trace(trace, assertions)
    return report


#: Family members for ``simulate_family``: bypass and blocking scoreboards,
#: one and two issue slots, lock-step with WAIT/interrupt inputs, and the
#: paper's example architecture.
_SIMULATED_MEMBERS = (
    "fam-r4w2d5s1-bypass",
    "fam-r4w1d5s1-blocking",
    "fam-r2w2d5s1-blocking-ls-wait",
    "dac2002-example",
)


def _setup_simulate_family(quick: bool):
    from ..archs import load_architecture

    length, programs = (48, 2) if quick else (400, 4)
    profile = WorkloadProfile(
        length=length, dependency_rate=0.5, wait_rate=0.1, interrupt_rate=0.05
    )
    cases = []
    for name in _SIMULATED_MEMBERS:
        arch = load_architecture(name)
        spec = build_functional_spec(arch)
        interlock = ClosedFormInterlock.from_derivation(symbolic_most_liberal(spec))
        workloads = [
            WorkloadGenerator(arch, seed=seed).generate(profile) for seed in range(programs)
        ]
        cases.append((arch, interlock, workloads))
    return cases


def _run_simulate_family(cases):
    # A run depends only on the program, so repetitions simulate the same
    # cycles; the compiled row functions are cached on the interlocks.
    cycles = 0
    for arch, interlock, workloads in cases:
        simulator = PipelineSimulator(arch, interlock)
        for program in workloads:
            trace = simulator.run(program)
            if not trace.hazard_free():
                raise AssertionError("a reference interlock must simulate hazard free")
            cycles += trace.num_cycles()
    return cycles


def _setup_property_check(quick: bool):
    arch = example_architecture(num_registers=2 if quick else 8)
    spec = build_functional_spec(arch)
    conservative = ClosedFormInterlock.from_spec(
        conservative_variant(arch), name="conservative-variant"
    )
    return spec, arch, conservative


def _run_property_check(state):
    spec, arch, conservative = state
    checker = PropertyChecker(spec, architecture=arch, backend="bdd")
    functional = checker.check_functional(conservative)
    performance = checker.check_performance(conservative)
    equivalence = checker.check_equivalence_with_derived(conservative)
    if not functional.all_hold():
        raise AssertionError("conservative variant must satisfy the functional spec")
    if performance.all_hold() and equivalence.all_hold():
        raise AssertionError("conservative variant must fail the performance half")
    return functional, performance, equivalence


def _setup_faults_dac2002(quick: bool):
    # The full 8-register paper example in both modes: the property
    # checker's work does not shrink with the workload length, and a
    # badly ordered checker manager is what this scenario exists to catch.
    arch = example_architecture()
    spec = build_functional_spec(arch)
    derivation = symbolic_most_liberal(spec)
    faults = FaultInjector(spec, seed=0, derivation=derivation).standard_fault_set(limit=4)
    return arch, spec, derivation, faults, 24 if quick else 48


def _run_faults_dac2002(state):
    # What a dac2002-example job's faults stage runs, with the job defaults.
    arch, spec, derivation, faults, length = state
    campaign = FaultCampaign(
        arch,
        spec,
        profile=WorkloadProfile(length=length),
        num_programs=1,
        seed=0,
        max_cycles=length * 8 + 100,
        derivation=derivation,
    )
    summary = campaign.run(faults)
    if summary.detected_by_property_check() != len(faults):
        raise AssertionError("the property check must detect every injected fault")
    return campaign


def _setup_campaign_sweep(quick: bool):
    from ..campaign import family_sweep

    if quick:
        # 8 small family members; still a real 2-process shard.
        return family_sweep(
            name="bench-quick",
            registers=(2,),
            widths=(1, 2),
            depths=(3, 4),
            styles=("bypass", "blocking"),
            workers=2,
            workload_length=24,
            max_faults=2,
        )
    return family_sweep(
        name="bench-full",
        registers=(2, 4),
        widths=(1, 2),
        depths=(4, 5),
        styles=("bypass", "blocking"),
        workers=2,
        workload_length=48,
        max_faults=4,
    )


def _run_campaign_sweep(spec):
    from ..campaign import run_campaign

    # No result store: every repetition re-verifies the whole family, so
    # the timing measures the orchestrated verification work, not the
    # content-hash cache.
    report = run_campaign(spec, store=None, use_cache=False)
    if not report.all_ok():
        raise AssertionError("campaign benchmark must verify the whole family")
    return report


def _setup_campaign_sweep_warm(quick: bool):
    import tempfile

    from ..campaign import ResultStore, run_campaign

    spec = _setup_campaign_sweep(quick)
    # One cold campaign populates the store (job results, per-stage
    # results, binary derivation artifacts) and warms the persistent
    # worker pool; the timed region then measures a fully warm re-run.
    # The TemporaryDirectory object rides along in the state so the store
    # survives until the benchmark's state is garbage collected.
    tempdir = tempfile.TemporaryDirectory(prefix="bench-warm-store-")
    store = ResultStore(tempdir.name)
    cold = run_campaign(spec, store=store)
    if not cold.all_ok():
        raise AssertionError("warm-campaign setup run must verify the whole family")
    return spec, store, tempdir


def _run_campaign_sweep_warm(state):
    from ..campaign import run_campaign

    spec, store, _tempdir = state
    # Everything should answer from the content-hashed store: the timing
    # is the artifact-backed warm path (hash, lookup, JSON decode), which
    # the nightly CI gate requires to be >=5x faster than the cold run.
    report = run_campaign(spec, store=store)
    if not report.all_ok():
        raise AssertionError("warm campaign must verify the whole family")
    if len(report.cached()) != report.total():
        raise AssertionError("warm campaign must answer every job from the store")
    return report


def _setup_bmc(quick: bool):
    # Large enough (4-register scoreboard, bound 6) that the timing is
    # dominated by the checker, not by per-run noise — a millisecond-scale
    # scenario makes the --check gate flap.
    arch = example_architecture(num_registers=2 if quick else 4)
    spec = build_functional_spec(arch)
    derivation = symbolic_most_liberal(spec)
    base = CombinationalModel(derivation.moe_expressions, name="example-derived")
    completion = spec.moe_flags()[-1]
    model = StuckResetModel(base, forced_values={completion: False}, cycles=2)
    return spec, environment_formula(arch), model, 2 if quick else 6


def _run_bmc(state):
    # A fresh checker per check: its per-instance caches must not carry
    # over, or the reported time is a warm-cache artefact rather than what
    # a cold check costs.  Three cold checks per timed run keep the
    # scenario long enough that scheduler jitter cannot trip the 1.5x gate.
    spec, environment, model, bound = state
    result = None
    for _ in range(3):
        checker = BoundedModelChecker(spec, environment=environment, stop_at_first=False)
        result = checker.check_performance(model, bound=bound)
    if result.holds:
        raise AssertionError("stuck-reset model must show a performance violation")
    return result


_SCENARIOS: List[Scenario] = [
    Scenario(
        name="derive_example",
        description="symbolic fixed-point derivation, paper example architecture "
        "(8-register scoreboard)",
        setup=_setup_derive_example,
        run=_run_derive_example,
        meta={"kind": "symbolic-derivation"},
        collect=_kernel_metrics,
    ),
    Scenario(
        name="derive_firepath",
        description="symbolic fixed-point derivation, FirePath-scale two-sided LIW "
        "architecture (6 pipes, 8-register scoreboard, ~157 control inputs)",
        setup=_setup_derive_firepath,
        run=_run_derive_firepath,
        meta={"kind": "symbolic-derivation"},
        collect=_kernel_metrics,
    ),
    Scenario(
        name="derive_firepath_full",
        description="symbolic fixed-point derivation + ISOP materialization, FULL "
        "16-register FirePath-scale architecture (26 stages, 277 control inputs; "
        "previously intractable in expression space)",
        setup=_setup_derive_firepath_full,
        run=_run_derive_firepath_full,
        meta={"kind": "symbolic-derivation"},
        collect=_kernel_metrics,
    ),
    Scenario(
        name="derive_family_64r",
        description="symbolic derivation + ISOP materialization, FirePath-scale "
        "architecture with a 64-register scoreboard (quick: 32 registers)",
        setup=_setup_derive_family_64r,
        run=_run_derive_family,
        meta={"kind": "symbolic-derivation"},
        collect=_kernel_metrics,
    ),
    Scenario(
        name="derive_family_256r",
        description="symbolic derivation + ISOP materialization, FirePath-scale "
        "architecture with a 256-register scoreboard (quick: 96 registers) — "
        "the 10x-scale target the array kernel must keep interactive",
        setup=_setup_derive_family_256r,
        run=_run_derive_family,
        meta={"kind": "symbolic-derivation"},
        collect=_kernel_metrics,
    ),
    Scenario(
        name="taut_enum_18",
        description="exhaustive tautology sweep over 18 control inputs "
        "(derived moe assignment substituted into the functional spec)",
        setup=_setup_taut_enum,
        run=_run_taut_enum,
        meta={"kind": "exhaustive-enumeration"},
    ),
    Scenario(
        name="coverage_sweep",
        description="specification coverage of 8 x ~1000-cycle traces of the "
        "example architecture",
        setup=_setup_coverage,
        run=_run_coverage,
        meta={"kind": "trace-sweep"},
    ),
    Scenario(
        name="assertion_monitor",
        description="assertion monitoring of 8 x ~1000-cycle traces (the inner "
        "loop of simulation and fault campaigns)",
        setup=_setup_monitor,
        run=_run_monitor,
        meta={"kind": "trace-sweep"},
    ),
    Scenario(
        name="simulate_family",
        description="cycle simulation of reference interlocks over fixed programs "
        "on four family members (bypass, blocking, lock-step with waits, paper "
        "example); 'cycles' counts the simulated cycles",
        setup=_setup_simulate_family,
        run=_run_simulate_family,
        meta={"kind": "simulation"},
        collect=lambda cycles: {"cycles": cycles},
    ),
    Scenario(
        name="property_check",
        description="BDD property check (functional + performance + equivalence) "
        "of the conservative interlock, paper example architecture",
        setup=_setup_property_check,
        run=_run_property_check,
        meta={"kind": "property-check"},
    ),
    Scenario(
        name="faults_dac2002",
        description="faults stage of a paper-example job: 4 injected faults, each "
        "simulated with assertions and property checked (8-register scoreboard); "
        "'sim_cycles' counts the simulated cycles, 'sim_stepped_cycles' the ones "
        "not repeated from a settled cycle",
        setup=_setup_faults_dac2002,
        run=_run_faults_dac2002,
        meta={"kind": "fault-campaign"},
        collect=_faults_metrics,
    ),
    Scenario(
        name="campaign_sweep",
        description="parallel verification campaign over the parametric "
        "architecture family (full job pipeline per member: properties, "
        "derivation, maximality, obligations, faults, analysis) sharded "
        "across 2 worker processes, caching disabled",
        setup=_setup_campaign_sweep,
        run=_run_campaign_sweep,
        meta={"kind": "campaign-orchestration"},
    ),
    Scenario(
        name="campaign_sweep_warm",
        description="the same family campaign re-run against a populated "
        "content-hashed result store with warm persistent workers — every "
        "job answers from cached results/artifacts, timing the incremental "
        "warm path rather than verification work",
        setup=_setup_campaign_sweep_warm,
        run=_run_campaign_sweep_warm,
        meta={"kind": "campaign-orchestration"},
    ),
    Scenario(
        name="bmc_stuck_reset",
        description="bounded performance check of a stuck-reset interlock model",
        setup=_setup_bmc,
        run=_run_bmc,
        meta={"kind": "bounded-model-check"},
    ),
]


def available_scenarios() -> List[str]:
    """Names of every registered benchmark scenario."""
    return [scenario.name for scenario in _SCENARIOS]


# -- running -----------------------------------------------------------------------


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeat: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, BenchResult]:
    """Run (a subset of) the scenarios and return their timings.

    Each scenario's setup phase is excluded from the timing; the run phase
    is repeated ``repeat`` times and the minimum is reported, which is the
    conventional low-noise estimator for wall-clock microbenchmarks.
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    selected = list(_SCENARIOS)
    if names is not None:
        unknown = set(names) - set(available_scenarios())
        if unknown:
            raise ValueError(f"unknown scenario(s): {sorted(unknown)}")
        selected = [scenario for scenario in selected if scenario.name in set(names)]
    from ..obs import get_registry

    registry = get_registry()
    results: Dict[str, BenchResult] = {}
    for scenario in selected:
        if progress is not None:
            progress(f"[{scenario.name}] setup ...")
        state = scenario.setup(quick)
        # What the timed region adds to the metrics registry (campaign
        # scenarios fold their workers' kernel/store counters home) rides
        # along in the result as an informational snapshot.
        registry_before = registry.snapshot()
        best = None
        outcome = None
        for _ in range(repeat):
            # Pay off garbage from setup and earlier scenarios now, so a
            # small scenario does not absorb a gen-2 collection pause that
            # belongs to its predecessors; then suspend the cyclic
            # collector for the timed region (as pyperf does) so the
            # measurement reflects the scenario, not allocator heuristics.
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                outcome = scenario.run(state)
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            if best is None or elapsed < best:
                best = elapsed
        metrics = _registry_delta_metrics(registry.delta_since(registry_before))
        if scenario.collect is not None:
            metrics.update(scenario.collect(outcome))
        results[scenario.name] = BenchResult(
            name=scenario.name,
            seconds=best,
            repeat=repeat,
            quick=quick,
            meta=dict(scenario.meta, description=scenario.description),
            metrics=metrics,
        )
        if progress is not None:
            progress(f"[{scenario.name}] {best:.4f}s")
    return results


def write_results(results: Dict[str, BenchResult], path: str) -> None:
    """Write one benchmark run to a JSON file."""
    payload = {
        "schema": SCHEMA_VERSION,
        "scenarios": {name: result.as_dict() for name, result in results.items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _baseline_scenarios(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Extract scenario timings from a run file (or a PR file in its schema)."""
    if "scenarios" in payload:
        return payload["scenarios"]
    raise ValueError("baseline file has no 'scenarios' section")


def check_against_baseline(
    results: Dict[str, BenchResult],
    baseline_path: str,
    tolerance: float = 1.5,
    warn: Optional[Callable[[str], None]] = None,
    slack: float = 0.05,
) -> List[str]:
    """Compare fresh timings to a baseline; return a list of regression messages.

    A scenario counts as regressed when it is more than ``tolerance`` times
    slower than the baseline *and* the excess exceeds ``slack`` seconds.
    The absolute slack keeps millisecond-scale scenarios from gating on
    scheduler and memory-layout noise — on a shared VM a 3 ms scenario
    routinely doubles without any code change — while second-scale
    scenarios still gate at the relative tolerance, and a genuine blowup
    of a tiny scenario (into the tens of milliseconds) still fails.
    Scenarios absent from either side are skipped — with a message through
    ``warn`` when one is given — so the gate does not fail just because a
    new benchmark was added before the baseline was rolled.  Scenarios
    whose ``quick`` flag differs from the baseline's do fail: quick
    workloads are far smaller, so comparing a quick run against a
    full-size baseline (or vice versa) would make the gate vacuous rather
    than strict.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    baseline = _baseline_scenarios(payload)
    failures: List[str] = []
    for name, result in results.items():
        reference = baseline.get(name)
        if reference is None:
            if warn is not None:
                warn(
                    f"{name}: not in baseline {baseline_path} — skipped "
                    "(roll the baseline with --update-baseline to gate it)"
                )
            continue
        if bool(reference.get("quick")) != result.quick:
            failures.append(
                f"{name}: not comparable — this run is "
                f"{'quick' if result.quick else 'full-size'} but the baseline was "
                f"{'quick' if reference.get('quick') else 'full-size'}; "
                "rerun with matching size"
            )
            continue
        reference_seconds = float(reference["seconds"])
        if reference_seconds <= 0.0:
            continue
        ratio = result.seconds / reference_seconds
        # slack <= 0 disables the absolute forgiveness entirely (a purely
        # relative gate); comparing the excess against 0.0 instead would
        # make the verdict depend on the baseline's 6-decimal rounding.
        if ratio > tolerance and (
            slack <= 0.0 or result.seconds - reference_seconds > slack
        ):
            failures.append(
                f"{name}: {result.seconds:.4f}s vs baseline "
                f"{reference_seconds:.4f}s ({ratio:.2f}x > {tolerance:.2f}x tolerance)"
            )
    return failures
