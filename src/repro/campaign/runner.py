"""The end-to-end verification job one campaign worker executes.

For a single architecture this chains the whole reproduction flow:

``properties``
    the Section 3.1 preconditions and property 3 (the most liberal
    assignment satisfies the spec) checked exhaustively with BDDs;
``derive``
    the symbolic fixed-point derivation of the maximum-performance
    interlock;
``maximality``
    the machine-checked Section 3.2 subsumption theorem;
``obligations``
    the derived contract — ``F_i∘MOE ↔ ¬MOE_i`` per stage — discharged
    through :meth:`~repro.checking.PropertyChecker.check_combined` on the
    derived interlock, each claim under the environment assumptions in
    its support cone;
``faults``
    a fault-injection campaign: every injected bug must be caught by the
    generated assertions or the property checker;
``analysis``
    a simulated workload with assertions armed, stall classification (no
    unnecessary stalls allowed) and specification coverage.

Every stage is timed individually and reduced to JSON-ready details, so
results can land in the content-hashed store and cross processes without
pickling any symbolic state.

A job has one BDD context, its derivation's, and every stage decides in
it; a stage's kernel work is the difference of two stats snapshots.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..analysis import classify_stalls, coverage_of
from ..archs import load_architecture
from ..assertions import monitor_trace, testbench_assertions
from ..checking import PropertyChecker
from ..faults import FaultCampaign, FaultInjector
from ..obs import KernelWatch, Tracer, annotate, get_registry, record_kernel_stats, span
from ..pipeline import ClosedFormInterlock, simulate
from ..spec import (
    DerivationError,
    build_functional_spec,
    check_all_properties,
    check_maximality,
    symbolic_most_liberal,
)
from ..spec.derivation import DerivationResult
from ..symbolic import SymbolicContext
from ..workloads import WorkloadGenerator, WorkloadProfile
from .spec import CANONICAL_STAGES, JobSpec

#: Schema of the serialized job result (part of the store's content key
#: indirectly via spec.SPEC_SCHEMA; bump both on incompatible changes).
RESULT_SCHEMA = 1


@dataclass
class StageResult:
    """Outcome of one verification stage of one job."""

    name: str
    ok: bool
    seconds: float
    details: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StageResult":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            name=payload["name"],
            ok=bool(payload["ok"]),
            seconds=float(payload["seconds"]),
            details=dict(payload.get("details", {})),
        )


@dataclass
class JobResult:
    """Outcome of one whole verification job.

    ``metrics`` carries a worker process's registry delta for the job
    (store traffic included) and ``trace_spans`` the job's finished
    spans when tracing; the orchestrator folds both into the parent —
    and nulls them — before the result is stored.  Both stay None for
    in-process execution, where the parent's registry counted directly.
    """

    job: JobSpec
    ok: bool
    seconds: float
    stages: List[StageResult] = field(default_factory=list)
    error: Optional[str] = None
    cached: bool = False
    trace_spans: Optional[List[Dict[str, Any]]] = None
    metrics: Optional[Dict[str, Any]] = None

    def stage(self, name: str) -> StageResult:
        """Look up a stage result by name (KeyError when absent)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"job has no stage {name!r}")

    def failed_stages(self) -> List[str]:
        """Names of the stages that did not pass."""
        return [stage.name for stage in self.stages if not stage.ok]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        payload = {
            "schema": RESULT_SCHEMA,
            "job": self.job.to_dict(),
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "stages": [stage.as_dict() for stage in self.stages],
            "error": self.error,
        }
        if self.trace_spans is not None:
            payload["trace_spans"] = list(self.trace_spans)
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobResult":
        """Rebuild from :meth:`as_dict` output (ValueError on bad schema)."""
        schema = payload.get("schema", RESULT_SCHEMA)
        if schema != RESULT_SCHEMA:
            raise ValueError(f"job result schema {schema} not supported")
        return cls(
            job=JobSpec.from_dict(payload["job"]),
            ok=bool(payload["ok"]),
            seconds=float(payload["seconds"]),
            stages=[StageResult.from_dict(s) for s in payload.get("stages", [])],
            error=payload.get("error"),
            trace_spans=payload.get("trace_spans"),
            metrics=payload.get("metrics"),
        )


# -- warm per-process architecture state -------------------------------------------

#: How many architectures' symbolic state one worker keeps live.  A warm
#: entry holds the loaded architecture, its functional spec and (after
#: the first job touches it) the derivation with its BDD manager, its
#: fault mutants and the property checker that decides in its context, so
#: a campaign sweeping many jobs over few architectures pays the symbolic
#: setup, and each mutant, once per worker instead of once per job.
_WARM_CAPACITY = 8

_WARM_STATE: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()


def _arch_state(arch: str) -> Dict[str, Any]:
    """The warm state for one architecture (LRU-cached per process).

    Everything cached here — architecture, spec, derivation, checker —
    is a deterministic function of the architecture name, so reuse
    across jobs with different workload knobs is sound.
    """
    state = _WARM_STATE.get(arch)
    if state is None:
        architecture = load_architecture(arch)
        state = {
            "architecture": architecture,
            "spec": build_functional_spec(architecture),
        }
        _WARM_STATE[arch] = state
        while len(_WARM_STATE) > _WARM_CAPACITY:
            _WARM_STATE.popitem(last=False)
    else:
        _WARM_STATE.move_to_end(arch)
    return state


def clear_warm_state() -> None:
    """Drop all warm architecture state (frees the cached BDD managers)."""
    _WARM_STATE.clear()


def _note_store_write_error(kind: str, error: Exception) -> str:
    """Count a store write that failed; the job's verdict does not depend on it.

    The store is a cache, so a full disk or an unserializable derivation
    must not fail the verification — but it must not vanish either: the
    failure lands in ``repro_store_write_errors_total{kind}`` and, as
    ``store_<kind>_write_error`` (returned), on the enclosing span: the
    stage for ``artifact``/``stage`` writes, the campaign for ``job`` and
    ``trace`` writes.
    """
    get_registry().inc("repro_store_write_errors_total", kind=kind)
    message = f"{type(error).__name__}: {error}"
    annotate(**{f"store_{kind}_write_error": message})
    return message


def _ensure_derivation(state: Dict[str, Any], job: JobSpec, store: Optional[Any]):
    """The job's derivation and where it came from, cheapest source first.

    Order of preference: the warm state (free), a stored binary artifact
    (milliseconds), a fresh fixed-point derivation (which is then dumped
    to the store, keyed by the ``derive`` stage's dependency hash, for
    every future job sharing this architecture).  Returns the derivation
    and where it came from (``"warm"``/``"artifact"``/``"computed"``),
    remembered in the per-job ``state`` for the ``derive`` stage.
    """
    if "source" in state:
        return state["derivation"], state["source"]
    warm = state["warm"]
    spec = state["spec"]
    key = job.stage_key("derive")
    derivation = warm.get("derivation")
    source = "warm"
    if derivation is None and store is not None:
        derivation = store.get_artifact(
            key, lambda data: DerivationResult.from_artifact_bytes(spec, data)
        )
        source = "artifact"
    if derivation is None:
        derivation = symbolic_most_liberal(spec)
        source = "computed"
    warm["derivation"] = state["derivation"] = derivation
    state["source"] = source
    # A warm worker pointed at a fresh store must still populate it, or
    # cold restarts would re-derive; the existence check is not a lookup,
    # so it does not skew the hit/miss tally.
    if store is not None and (
        source == "computed"
        or (source == "warm" and not store.artifact_path(key).exists())
    ):
        try:
            store.put_artifact(key, derivation.to_artifact_bytes(include_covers=True))
        except (ValueError, OSError) as error:
            state["artifact_write_error"] = _note_store_write_error("artifact", error)
    return derivation, source


def _ensure_checker(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> PropertyChecker:
    """The property checker of the job's derivation, shared by its stages.

    It is kept beside the warm derivation, so the environment assumptions
    and their partition are built once per derivation, not once per stage
    of every job.
    """
    derivation, _ = _ensure_derivation(state, job, store)
    warm = state["warm"]
    checker = warm.get("checker")
    if checker is None:
        checker = warm["checker"] = PropertyChecker(
            state["spec"], architecture=state["architecture"], derivation=derivation
        )
    return checker


def _job_context(state: Dict[str, Any]) -> Optional[SymbolicContext]:
    """The job's BDD context, once a derivation exists for it."""
    derivation = state["warm"].get("derivation")
    return derivation.context if derivation is not None else None


# -- stage implementations ---------------------------------------------------------


def _stage_properties(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    try:
        derivation, _ = _ensure_derivation(state, job, store)
    except DerivationError:
        # A spec that cannot be derived still gets its Section 3.1 checks;
        # the derive stage then fails with the derivation's own error.
        derivation = None
    report = check_all_properties(state["spec"], derivation)
    details: Dict[str, Any] = {check.name: check.holds for check in report.checks}
    counterexamples = {
        check.name: check.counterexample
        for check in report.checks
        if check.counterexample is not None
    }
    if counterexamples:
        details["counterexamples"] = counterexamples
    return StageResult(
        name="properties", ok=report.all_hold(), seconds=0.0, details=details
    )


def _stage_derive(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    derivation, source = _ensure_derivation(state, job, store)
    details = {
        "iterations": derivation.iterations,
        "feed_forward": derivation.feed_forward,
        "moe_flags": len(state["spec"].moe_flags()),
        "inputs": len(state["spec"].input_signals()),
        "bdd_nodes": sum(derivation.bdd_sizes.values()),
        "source": source,
    }
    annotate(source=source)
    if "artifact_write_error" in state:
        # Written when the derivation was resolved, maybe by an earlier stage.
        annotate(store_artifact_write_error=state["artifact_write_error"])
    return StageResult(name="derive", ok=True, seconds=0.0, details=details)


def _stage_maximality(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    derivation, _ = _ensure_derivation(state, job, store)
    ok = check_maximality(state["spec"], derivation).holds
    return StageResult(name="maximality", ok=ok, seconds=0.0, details={})


def _stage_obligations(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    derivation, _ = _ensure_derivation(state, job, store)
    checker = _ensure_checker(state, job, store)
    # The derived contract F_i∘MOE ↔ ¬MOE_i, per stage, under the environment
    # assumptions in each claim's support cone.
    report = checker.check_combined(ClosedFormInterlock.from_derivation(derivation))
    details = {"obligations": len(report.results), "failing": report.failing_stages()}
    return StageResult(
        name="obligations", ok=report.all_hold(), seconds=0.0, details=details
    )


def _stage_faults(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    spec = state["spec"]
    architecture = state["architecture"]
    derivation, _ = _ensure_derivation(state, job, store)
    profile = WorkloadProfile(length=job.workload_length)
    injector = FaultInjector(spec, seed=job.workload_seed, derivation=derivation)
    faults = injector.standard_fault_set(limit=job.max_faults)
    if not faults:
        return StageResult(
            name="faults", ok=True, seconds=0.0, details={"injected": 0}
        )
    campaign = FaultCampaign(
        architecture,
        spec,
        profile=profile,
        num_programs=job.num_programs,
        seed=job.workload_seed,
        max_cycles=job.workload_length * 8 + 100,
        derivation=derivation,
        property_checker=_ensure_checker(state, job, store),
    )
    summary = campaign.run(faults)
    annotate(checker_kernel=campaign.property_checker.kernel_stats())
    missed = summary.effective_total() - sum(
        1 for record in summary.records if not record.vacuous and record.detected_by_any
    )
    details = {
        "injected": summary.total(),
        "vacuous": summary.vacuous(),
        "detected_any": summary.detected_by_any(),
        "detected_simulation": summary.detected_by_simulation(),
        "detected_property": summary.detected_by_property_check(),
        "missed": missed,
    }
    return StageResult(name="faults", ok=missed == 0, seconds=0.0, details=details)


def _stage_analysis(
    state: Dict[str, Any], job: JobSpec, store: Optional[Any]
) -> StageResult:
    spec = state["spec"]
    architecture = state["architecture"]
    derivation, _ = _ensure_derivation(state, job, store)
    interlock = ClosedFormInterlock.from_derivation(derivation)
    program = WorkloadGenerator(architecture, seed=job.workload_seed).generate(
        WorkloadProfile(length=job.workload_length)
    )
    trace = simulate(architecture, interlock, program)
    monitor = monitor_trace(trace, testbench_assertions(spec))
    breakdown = classify_stalls(trace, spec, derivation=derivation)
    coverage = coverage_of(spec, [trace])
    details = {
        "cycles": trace.num_cycles(),
        "assertion_violations": monitor.violation_count(),
        "hazards": trace.hazard_count(),
        "stall_cycles": breakdown.total_stalls(),
        "unnecessary_stalls": breakdown.total_unnecessary(),
        "disjunct_coverage": round(coverage.overall_disjunct_coverage, 4),
    }
    ok = (
        monitor.clean()
        and trace.hazard_free()
        and breakdown.total_unnecessary() == 0
    )
    return StageResult(name="analysis", ok=ok, seconds=0.0, details=details)


_STAGE_IMPLS: Dict[
    str, Callable[[Dict[str, Any], JobSpec, Optional[Any]], StageResult]
] = {
    "properties": _stage_properties,
    "derive": _stage_derive,
    "maximality": _stage_maximality,
    "obligations": _stage_obligations,
    "faults": _stage_faults,
    "analysis": _stage_analysis,
}


def run_verification_job(
    job: JobSpec,
    store: Optional[Any] = None,
    use_cache: bool = True,
) -> JobResult:
    """Run one job's stages in canonical order and collect the outcome.

    A stage that raises is recorded as failed with the traceback in the
    job error and aborts the remaining stages; the orchestrator keeps the
    campaign going with the other jobs.

    With a ``store`` (any object with the :class:`ResultStore` artifact
    and stage methods), derivations are loaded from / dumped to binary
    artifacts keyed by dependency hash, and every passing stage's result
    is recorded under its own :meth:`JobSpec.stage_key`.  Unless
    ``use_cache`` is False, stages whose dependency hash already has a
    passing stored result are *not* re-executed — their stored result is
    replayed with ``details["from_store"] = True`` — which is what makes
    editing one workload knob re-run only the stages that read it.
    """
    start = time.perf_counter()
    stages: List[StageResult] = []
    try:
        warm = _arch_state(job.arch)
    except Exception:
        return JobResult(
            job=job,
            ok=False,
            seconds=time.perf_counter() - start,
            stages=stages,
            error=traceback.format_exc(),
        )
    # Per-job state over the warm architecture state: the job's
    # derivation and its source land here (see _ensure_derivation).
    state: Dict[str, Any] = {
        "warm": warm,
        "architecture": warm["architecture"],
        "spec": warm["spec"],
    }
    error: Optional[str] = None
    registry = get_registry()
    for name in CANONICAL_STAGES:
        if name not in job.stages:
            continue
        stage_start = time.perf_counter()
        with span(name, kind="stage", arch=job.arch) as stage_span:
            cached = None
            if use_cache and store is not None:
                cached = store.get_stage(name, job.stage_key(name))
            replayed = cached is not None and cached.ok
            if replayed:
                details = dict(cached.details)
                details["from_store"] = True
                result = StageResult(name=name, ok=True, seconds=0.0, details=details)
                stage_span.annotate(from_store=True)
            else:
                context = _job_context(state)
                watch = KernelWatch(context.manager) if context is not None else None
                try:
                    result = _STAGE_IMPLS[name](state, job, store)
                except Exception:
                    result = StageResult(name=name, ok=False, seconds=0.0)
                    error = traceback.format_exc()
                if watch is None and _job_context(state) is not None:
                    # The stage created the job context: all its work is this stage's.
                    watch = KernelWatch(_job_context(state).manager)
                    watch.rebase({})
                if watch is not None:
                    kernel = watch.delta()
                    record_kernel_stats(kernel)
                    stage_span.annotate(kernel=kernel)
                    if name == "derive" and result.ok:
                        # Campaign reports show the derivation's kernel health.
                        result.details["kernel"] = kernel
                stage_span.annotate(ok=result.ok)
            result.seconds = time.perf_counter() - stage_start
            registry.observe("repro_stage_seconds", result.seconds, stage=name)
            if not replayed and error is None and result.ok and store is not None:
                try:
                    store.put_stage(job.stage_key(name), result)
                except OSError as write_error:
                    _note_store_write_error("stage", write_error)
        stages.append(result)
        if error is not None:
            break
    # The warm state keeps the context across jobs.  Fault mutants stay
    # in it on purpose: the derivation keeps each one, with the checker's
    # first refutations on it, so the next job at another seed only
    # simulates (at max_faults=4 only the extra-stall mutant's trigger
    # depends on the seed, and it has few candidates).  Everything else
    # this job added, checker claims and their environment cones, is
    # reclaimed here.  If the collection itself fails (a context that
    # outgrew memory), the warm derivation is dropped with its mutants and
    # the checker that decides in it, so the next job re-derives, and the
    # job fails with the traceback instead of raising.
    context = _job_context(state)
    if context is not None:
        try:
            if "checker" in warm:
                warm["checker"].release_cones()
            context.collect()
        except Exception:
            warm.pop("derivation", None)
            warm.pop("checker", None)
            if error is None:
                error = traceback.format_exc()
    ok = error is None and all(stage.ok for stage in stages)
    seconds = time.perf_counter() - start
    registry.observe("repro_job_seconds", seconds)
    registry.inc("repro_campaign_jobs_total", outcome="ok" if ok else "failed")
    return JobResult(
        job=job,
        ok=ok,
        seconds=seconds,
        stages=stages,
        error=error,
    )


def run_traced_job(
    job: JobSpec,
    store: Optional[Any] = None,
    use_cache: bool = True,
    trace: Optional[Dict[str, Any]] = None,
) -> JobResult:
    """Run one job, optionally under a trace session.

    ``trace`` is None (plain :func:`run_verification_job`) or a dict with
    the campaign's correlation ``id`` and optionally the ``parent`` span
    id — exactly what the orchestrator puts in the worker payload.  When
    traced, the job runs inside a fresh :class:`~repro.obs.Tracer` whose
    finished spans land on ``JobResult.trace_spans`` for the parent to
    export and merge.
    """
    if not trace:
        return run_verification_job(job, store=store, use_cache=use_cache)
    tracer = Tracer(trace_id=trace.get("id"), root_parent=trace.get("parent"))
    with tracer.activate():
        with span("job", arch=job.arch, stages=list(job.stages)) as job_span:
            result = run_verification_job(job, store=store, use_cache=use_cache)
            job_span.annotate(ok=result.ok)
    get_registry().inc("repro_trace_spans_total", len(tracer.spans))
    result.trace_spans = tracer.spans
    return result
