"""Warm process-pool campaign orchestrator.

Shards the pending (non-cached) jobs of a campaign across worker
processes.  Jobs cross the process boundary as plain dictionaries — the
declarative :class:`~repro.campaign.spec.JobSpec` round trip — so no
symbolic state (BDD managers, compiled evaluators) is ever pickled.

Workers are *persistent*: the pool is a module-level singleton that
survives across campaigns, and inside each worker
:func:`~repro.campaign.runner._arch_state` keeps live
``BddManager``/``SymbolicContext`` state per architecture.  A second
campaign over the same family therefore skips process startup, module
imports, architecture loading and the symbolic derivation — the warm-path
speedup the nightly warm gate (``scripts/warm_gate.py``) measures.  Workers also read/write the shared result store directly
(binary derivation artifacts and per-stage results, both content-hashed
and written atomically), shipping their metrics-registry deltas — store
traffic included — back with each result so the campaign report can
tally cache effectiveness.

With ``workers=1`` (or a single pending job) everything runs in-process,
which is also the fallback when the platform cannot fork; the result is
identical either way, only the wall clock differs.
"""

from __future__ import annotations

import atexit
import multiprocessing
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional

from ..obs import Tracer, get_registry, span, tracing_enabled
from .report import CampaignReport
from .runner import JobResult, _note_store_write_error, run_traced_job
from .spec import CampaignSpec, JobSpec
from .store import ResultStore, store_tally

ProgressFn = Callable[[str], None]
ResultFn = Callable[[JobResult], None]
StopFn = Callable[[], bool]

#: How often (seconds) the pool-streaming loop re-checks ``should_stop``
#: while no result is ready.  Bounds cancellation latency for callers
#: like the service daemon without busy-waiting.
_STOP_POLL_SECONDS = 0.2


class CampaignCancelled(RuntimeError):
    """Raised by :func:`run_campaign` when ``should_stop`` turned true.

    Cancellation is cooperative and job-granular: jobs already handed to
    a worker run to completion (killing a worker mid-job would poison
    the warm pool), jobs not yet started are never dispatched.  Results
    consumed before the stop — including everything ``on_result`` saw —
    remain in the store; only the aggregate report is lost.
    """


def _execute_job_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: dict in, dict out (must stay module-level picklable).

    The worker opens a handle on the shared store directory, executes
    the job with artifact/stage caching, and ships what the job added to
    its registry (store traffic included) home inside the result; the
    parent folds it, so campaign-wide counts need no second channel.
    """
    job = JobSpec.from_dict(payload["job"])
    store_root = payload.get("store")
    store = ResultStore(store_root) if store_root is not None else None
    registry = get_registry()
    metrics_before = registry.snapshot()
    result = run_traced_job(
        job,
        store=store,
        use_cache=payload["use_cache"],
        trace=payload.get("trace"),
    )
    # Gauges stay worker-local; counters and histograms travel.
    result.metrics = registry.delta_since(metrics_before)
    return result.as_dict()


def _pool_context():
    """Prefer fork on Linux: workers inherit sys.path, so an uninstalled
    source tree (PYTHONPATH=src) still imports.  Elsewhere keep the
    platform default — macOS lists fork as available but forking a
    process that touched the Objective-C runtime is unsafe there."""
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


# -- the persistent pool -----------------------------------------------------------

_WARM_POOL: Optional[ProcessPoolExecutor] = None
_WARM_POOL_WORKERS = 0


def _warm_pool(workers: int) -> ProcessPoolExecutor:
    """The shared persistent pool, (re)created only when the size changes."""
    global _WARM_POOL, _WARM_POOL_WORKERS
    if _WARM_POOL is not None and _WARM_POOL_WORKERS != workers:
        shutdown_warm_pool()
    if _WARM_POOL is None:
        _WARM_POOL = ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        )
        _WARM_POOL_WORKERS = workers
    return _WARM_POOL


def shutdown_warm_pool() -> None:
    """Tear down the persistent worker pool (no-op when none is live).

    Campaigns recreate it on demand; call this to reclaim the worker
    processes and their warm BDD state, e.g. at the end of a long-lived
    service or between benchmark phases that must not share warmth.
    """
    global _WARM_POOL, _WARM_POOL_WORKERS
    if _WARM_POOL is not None:
        _WARM_POOL.shutdown()
        _WARM_POOL = None
        _WARM_POOL_WORKERS = 0


atexit.register(shutdown_warm_pool)


def _run_pool(
    pending: List[JobSpec],
    workers: int,
    progress: Optional[ProgressFn],
    store_root: Optional[str],
    use_cache: bool,
    consume: Callable[[int, JobResult], None],
    should_stop: Optional[StopFn] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> None:
    """Stream jobs through the persistent pool, consuming results as they land."""
    pool = _warm_pool(workers)
    broken = False
    future_index = {
        pool.submit(
            _execute_job_payload,
            {
                "job": job.to_dict(),
                "store": store_root,
                "use_cache": use_cache,
                "trace": trace,
            },
        ): index
        for index, job in enumerate(pending)
    }
    outstanding = set(future_index)
    while outstanding:
        if should_stop is not None and should_stop():
            # Drain, don't kill: unstarted futures are revoked, but jobs
            # a worker already picked up run to completion so the warm
            # pool stays healthy (their results still land in the store).
            for future in outstanding:
                future.cancel()
            running = [f for f in outstanding if not f.cancelled()]
            if running:
                wait(running)
            raise CampaignCancelled(
                f"campaign cancelled with {len(outstanding)} jobs undone"
            )
        done, outstanding = wait(
            outstanding,
            return_when=FIRST_COMPLETED,
            timeout=None if should_stop is None else _STOP_POLL_SECONDS,
        )
        for future in done:
            index = future_index[future]
            try:
                result = JobResult.from_dict(future.result())
            except Exception as exc:
                # A killed or crashed worker (BrokenProcessPool, lost
                # result) fails its job, not the campaign: completed
                # results stay, remaining futures surface the same way.
                if isinstance(exc, BrokenProcessPool):
                    broken = True
                result = JobResult(
                    job=pending[index],
                    ok=False,
                    seconds=0.0,
                    error=traceback.format_exc(),
                )
            consume(index, result)
            if progress is not None:
                status = "ok" if result.ok else "FAIL"
                progress(f"[{result.job.arch}] {status} in {result.seconds:.3f}s")
    if broken:
        # A dead pool never recovers; dispose of it so the next campaign
        # starts a fresh one instead of failing every submit.
        shutdown_warm_pool()


def run_campaign(
    spec: CampaignSpec,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
    on_result: Optional[ResultFn] = None,
    should_stop: Optional[StopFn] = None,
    trace: Optional[bool] = None,
) -> CampaignReport:
    """Run a whole campaign and aggregate the per-job outcomes.

    This is the batch engine's single public entry point: everything the
    CLI (``repro campaign``) and the service daemon (``repro serve``) do
    funnels through here.

    Args:
        spec: the declarative campaign to run.
        store: result store for content-hashed caching; None disables
            persistence entirely.
        use_cache: reuse stored verdicts: answer a job from its stored
            result, and replay each stage whose dependency hash has a
            passing stored result instead of re-executing it (see
            :data:`~repro.campaign.spec.STAGE_DEPENDENCIES`).  False
            re-executes every stage; writes happen regardless.
        progress: optional line-oriented progress callback.
        workers: override the campaign's worker count (e.g. from the CLI).
        on_result: streaming callback invoked once per job *as results
            arrive* (cached jobs first, then fresh ones in completion
            order) — unlike the returned report, which is in job order.
        should_stop: polled between jobs (and every few hundred
            milliseconds while waiting on the pool); when it returns
            True the campaign raises :class:`CampaignCancelled` after
            draining already-dispatched jobs.  This is the cooperative
            cancellation hook the async service layer drives from a
            ``threading.Event``.
        trace: force span tracing on (True) or off (False); the default
            None defers to the ``REPRO_TRACE`` environment variable.
            When tracing, one correlation id spans the campaign and all
            its workers, each fresh job's spans are exported to the
            store as ``trace-<job_key>.ndjson`` (when a store is
            configured), and the report embeds per-span-name rollups.

    Job failures — verification failures and crashed workers alike — are
    captured in the per-job results; this function only raises for
    orchestration-level errors (and :class:`CampaignCancelled`).

    Example — a two-architecture campaign with streaming results and a
    shared store::

        from repro.campaign import (
            CampaignSpec, JobSpec, ResultStore, run_campaign,
        )

        spec = CampaignSpec(
            name="demo",
            jobs=(
                JobSpec(arch="fam-r2w1d3s1-bypass"),
                JobSpec(arch="fam-r2w1d3s1-blocking"),
            ),
            workers=2,
        )
        store = ResultStore(".campaign-results")
        report = run_campaign(
            spec, store=store,
            on_result=lambda r: print(r.job.arch, "ok" if r.ok else "FAIL"),
        )
        assert report.all_ok()
        # A second identical run answers from the store in milliseconds:
        assert run_campaign(spec, store=store).cached()
    """
    worker_count = spec.workers if workers is None else max(1, workers)
    start = time.perf_counter()
    registry = get_registry()
    metrics_before = registry.snapshot()
    registry.inc("repro_campaign_runs_total")
    tracing = tracing_enabled() if trace is None else bool(trace)
    tracer = Tracer() if tracing else None
    results: Dict[int, JobResult] = {}
    pending: List[int] = []

    def finish(index: int, result: JobResult, fresh: bool) -> None:
        if fresh:
            # Fold the worker's metrics delta into this registry, then
            # drop it so persisted results stay free of run-specific
            # counters.  The job's trace spans travel — and are
            # stripped — the same way.
            if result.metrics:
                registry.fold(result.metrics)
            result.metrics = None
            if result.trace_spans:
                if store is not None:
                    try:
                        store.put_trace(spec.jobs[index].job_key(), result.trace_spans)
                    except OSError as error:
                        _note_store_write_error("trace", error)
                if tracer is not None:
                    tracer.spans.extend(result.trace_spans)
            result.trace_spans = None
            # Only passing results are cached: a failure is something to
            # investigate and re-run, not to replay from disk.
            if store is not None and result.ok:
                try:
                    store.put(spec.jobs[index], result)
                except OSError as error:
                    _note_store_write_error("job", error)
        else:
            registry.inc("repro_campaign_jobs_total", outcome="cached")
        results[index] = result
        if on_result is not None:
            on_result(result)

    session = ExitStack()
    job_trace: Optional[Dict[str, Any]] = None
    if tracer is not None:
        session.enter_context(tracer.activate())
        campaign_span = session.enter_context(
            span("campaign", name=spec.name, jobs=len(spec.jobs), workers=worker_count)
        )
        job_trace = {"id": tracer.trace_id, "parent": campaign_span.span_id}
    try:
        for index, job in enumerate(spec.jobs):
            cached = store.get(job) if (store is not None and use_cache) else None
            if cached is not None:
                cached.cached = True
                finish(index, cached, fresh=False)
                if progress is not None:
                    progress(f"[{job.arch}] cached ({'ok' if cached.ok else 'FAIL'})")
            else:
                pending.append(index)

        if pending:
            pending_jobs = [spec.jobs[index] for index in pending]
            if worker_count > 1 and len(pending_jobs) > 1:
                _run_pool(
                    pending_jobs,
                    worker_count,
                    progress,
                    store_root=None if store is None else str(store.root),
                    use_cache=use_cache,
                    consume=lambda i, result: finish(pending[i], result, fresh=True),
                    should_stop=should_stop,
                    trace=job_trace,
                )
            else:
                for position, index in enumerate(pending):
                    if should_stop is not None and should_stop():
                        raise CampaignCancelled(
                            f"campaign cancelled with {len(pending) - position} jobs undone"
                        )
                    job = spec.jobs[index]
                    result = run_traced_job(
                        job, store=store, use_cache=use_cache, trace=job_trace
                    )
                    finish(index, result, fresh=True)
                    if progress is not None:
                        status = "ok" if result.ok else "FAIL"
                        progress(f"[{job.arch}] {status} in {result.seconds:.3f}s")
    finally:
        # Close the campaign span (and deactivate the tracer) even on
        # cancellation, before rolling spans up below.
        session.close()

    cache: Optional[Dict[str, int]] = None
    if store is not None:
        cache = store_tally(registry.delta_since(metrics_before)["counters"])
    ordered = [results[index] for index in range(len(spec.jobs))]
    report = CampaignReport(
        name=spec.name,
        results=ordered,
        workers=worker_count,
        wall_seconds=time.perf_counter() - start,
        cache=cache,
    )
    if tracer is not None:
        report.trace = tracer.summary()
    return report
