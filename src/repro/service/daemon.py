"""The asyncio verification-service core.

:class:`VerificationService` wraps the batch campaign engine
(:func:`repro.campaign.run_campaign`) in a persistent prioritized job
queue that many concurrent clients share:

* **One event loop, zero blocking.**  Campaigns execute on a dedicated
  single-thread runner executor via ``run_in_executor``; the campaign's
  ``progress``/``on_result`` callbacks hop back onto the loop with
  ``call_soon_threadsafe``, feeding each job's append-only event log that
  any number of HTTP streams replay and follow concurrently.
* **One shared cache.**  All jobs read and write the same
  :class:`~repro.campaign.store.ResultStore`; a submission whose every
  job is already stored is answered *at submission time* from a light
  probe executor — milliseconds, no queueing — which is what makes hot
  architectures cheap no matter how busy the queue is.
* **One warm worker pool.**  The campaign layer's persistent fork pool
  (live BDD state per worker) stays warm across jobs and clients; the
  service's graceful shutdown drains in-flight work and then tears the
  pool down explicitly via
  :func:`~repro.campaign.orchestrator.shutdown_warm_pool` (the atexit
  hook remains only as a backstop for non-service embedders).
* **Priorities, deduplication, cancellation.**  Higher-priority
  submissions run first (FIFO within a priority); identical concurrent
  submissions coalesce onto one running job by campaign content hash;
  cancellation is cooperative and job-granular via the orchestrator's
  ``should_stop`` hook.

The HTTP surface over this core lives in :mod:`repro.service.api` /
:mod:`repro.service.http`; this module is usable directly from any
asyncio program.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from .. import __version__
from ..archs import is_family_name, load_architecture
from ..campaign.orchestrator import (
    CampaignCancelled,
    run_campaign,
    shutdown_warm_pool,
)
from ..campaign.report import CampaignReport
from ..campaign.spec import CampaignSpec
from ..campaign.store import ResultStore, store_tally
from ..obs import MetricsRegistry, get_registry
from .jobs import JobRecord, JobState, parse_submission

__all__ = ["ServiceClosing", "VerificationService"]

#: How many finished job records (with their event logs) the daemon keeps.
#: Beyond it the oldest finished record is dropped and its id answers 404;
#: its results stay in the store.  Queued and running jobs are never dropped.
_RETAINED_FINISHED_JOBS = 256


class ServiceClosing(RuntimeError):
    """Raised for submissions that arrive during shutdown (HTTP 503)."""


def _validate_archs(spec: CampaignSpec) -> None:
    """Resolve every architecture name so bad submissions fail fast (400).

    Runs on the probe executor: resolving a family name builds the
    architecture object, which is cheap next to verification but not
    event-loop cheap.
    """
    from .jobs import SubmissionError

    for job in spec.jobs:
        try:
            load_architecture(job.arch)
        except Exception as exc:
            raise SubmissionError(f"unknown architecture {job.arch!r}: {exc}") from exc


class VerificationService:
    """Shared async job queue over the campaign engine.

    Args:
        store: the result store every job shares, or None to disable
            caching entirely (each job then recomputes from scratch).
        workers: worker-process count for each campaign run; submissions
            cannot raise it (the pool is a shared resource), their
            spec's own ``workers`` field is ignored.
        trace: run every campaign with span tracing forced on (job
            traces land in the store as NDJSON); the default False still
            honors a ``REPRO_TRACE=1`` environment.

    Lifecycle: ``await start()`` once from the owning event loop, then
    any number of :meth:`submit`/:meth:`stream`/:meth:`cancel` calls,
    then ``await close()`` exactly once.  All public methods must be
    called from the owning loop.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        trace: bool = False,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.trace = bool(trace)
        self.started_at = time.time()
        # Records in submission order; finished ids in the order they finished.
        self._jobs: Dict[str, JobRecord] = {}
        self._finished: Deque[str] = deque()
        self._active_key: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._fifo = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: "Optional[asyncio.PriorityQueue[Tuple[int, int, str]]]" = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._stall_task: Optional[asyncio.Task] = None
        self._runner: Optional[ThreadPoolExecutor] = None
        self._probe: Optional[ThreadPoolExecutor] = None
        self._closing = False
        self._closed = False
        self._current_job_id: Optional[str] = None
        # Family names that resolved once: a family member is a pure
        # function of its name, so it cannot stop resolving later.
        self._resolved_families: Set[str] = set()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the scheduler."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        # One runner thread: campaigns already shard over the process
        # pool internally, and serializing them keeps the warm pool's
        # per-architecture state coherent.  The probe pool handles the
        # cheap off-loop work (cache probes, arch validation, telemetry).
        self._runner = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-runner"
        )
        self._probe = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-probe"
        )
        self._scheduler_task = asyncio.create_task(self._scheduler())
        if os.environ.get("REPRO_SANITIZE"):
            # Sanitize mode: watch our own event loop for stalls — any
            # blocking call that slips onto the loop thread (the RPL005
            # lint's bug class) surfaces as an EventLoopStallWarning with
            # the measured lag instead of silently freezing every stream.
            from ..devtools.sanitizer import loop_stall_monitor

            self._stall_task = asyncio.create_task(loop_stall_monitor())

    async def close(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, settle the queue, free the pool.

        With ``drain`` (the default) the currently running job completes
        and lands in the store; without it the running job is cancelled
        cooperatively (already-dispatched architectures still finish —
        see :class:`~repro.campaign.orchestrator.CampaignCancelled`).
        Queued jobs are cancelled either way, then the persistent warm
        worker pool is shut down explicitly — this is the documented
        lifecycle owner of
        :func:`~repro.campaign.orchestrator.shutdown_warm_pool`, which
        otherwise only runs from its atexit backstop.
        """
        if self._closed:
            return
        self._closing = True
        for record in list(self._jobs.values()):
            if record.state == JobState.QUEUED:
                self.cancel(record.id)
        current = self._jobs.get(self._current_job_id or "")
        if current is not None and not current.terminal:
            if not drain:
                current.cancel_event.set()
            while not current.terminal:
                current.changed.clear()
                if current.terminal:
                    break
                await current.changed.wait()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        if self._stall_task is not None:
            self._stall_task.cancel()
            try:
                await self._stall_task
            except asyncio.CancelledError:
                pass
            self._stall_task = None
        assert self._loop is not None and self._probe is not None
        await self._loop.run_in_executor(self._probe, shutdown_warm_pool)
        if self._runner is not None:
            self._runner.shutdown(wait=True)
        self._probe.shutdown(wait=True)
        self._closed = True

    # -- submission --------------------------------------------------------------

    async def submit(self, payload: Any) -> Tuple[JobRecord, bool]:
        """Accept a submission; returns ``(record, coalesced)``.

        Raises :class:`~repro.service.jobs.SubmissionError` for bad
        payloads and :class:`ServiceClosing` during shutdown.  When every
        job of the campaign is already in the store, the returned record
        is terminal (``done``, ``from_cache``) before this coroutine
        returns — the warm-cache fast path.
        """
        if self._closing:
            raise ServiceClosing("service is shutting down; submission refused")
        assert self._loop is not None and self._probe is not None
        spec, priority = parse_submission(payload)
        # A cached resubmission of a known family member skips the probe
        # thread round trip; every other name is resolved off the loop.
        if not all(job.arch in self._resolved_families for job in spec.jobs):
            await self._loop.run_in_executor(self._probe, _validate_archs, spec)
            self._resolved_families.update(
                job.arch for job in spec.jobs if is_family_name(job.arch)
            )
        existing_id = self._active_key.get(spec.campaign_key())
        existing = self._jobs.get(existing_id or "")
        if existing is not None and not existing.terminal:
            get_registry().inc("repro_service_coalesced_total")
            return existing, True
        get_registry().inc("repro_service_submissions_total")
        record = JobRecord(
            f"job-{next(self._ids):06d}", spec, priority, time.time()
        )
        self._jobs[record.id] = record
        self._active_key[record.key] = record.id
        record.publish(
            "state",
            {
                "state": JobState.QUEUED,
                "campaign": spec.name,
                "jobs": len(spec.jobs),
                "priority": priority,
            },
        )
        if self.store is not None:
            report = await self._loop.run_in_executor(
                self._probe, self._probe_cache, spec
            )
            if report is not None:
                self._finish_cached(record, report)
                return record, False
        assert self._queue is not None
        self._queue.put_nowait((-priority, next(self._fifo), record.id))
        return record, False

    def _probe_cache(self, spec: CampaignSpec) -> Optional[CampaignReport]:
        """Serve a fully-cached campaign straight from the store (probe thread).

        Returns None — falling back to the queue — unless *every* job of
        the campaign has a valid stored result.  The existence pre-check
        keeps fresh submissions from skewing the miss tally.
        """
        store = self.store
        assert store is not None
        if not all(store.path_for(job).exists() for job in spec.jobs):
            return None
        start = time.perf_counter()
        results = []
        for job in spec.jobs:
            result = store.get(job)
            if result is None:  # corrupt or raced away: run it for real
                return None
            result.cached = True
            results.append(result)
        # Every job was one job hit; a registry delta would cost two
        # snapshots on the cached-answer path.
        return CampaignReport(
            name=spec.name,
            results=results,
            workers=0,
            wall_seconds=time.perf_counter() - start,
            cache=dict(store_tally({}), hits=len(results)),
        )

    def _finish_cached(self, record: JobRecord, report: CampaignReport) -> None:
        """Terminal bookkeeping for the submission-time cache fast path."""
        get_registry().inc("repro_service_cache_answers_total")
        record.from_cache = True
        for result in report.results:
            record.publish(
                "result",
                {
                    "arch": result.job.arch,
                    "ok": result.ok,
                    "cached": True,
                    "seconds": round(result.seconds, 6),
                    "failed_stages": result.failed_stages(),
                },
            )
        self._finalize(record, JobState.DONE, report.as_dict(), report.all_ok(), None)

    # -- queries -----------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        """Look up a record (KeyError when unknown or dropped — HTTP 404 upstream)."""
        return self._jobs[job_id]

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """The retained records in submission order, optionally filtered by state."""
        records = list(self._jobs.values())
        if state is not None:
            records = [record for record in records if record.state == state]
        return records

    def state_counts(self) -> Dict[str, int]:
        """How many retained jobs sit in each lifecycle state."""
        counts = {state: 0 for state in JobState.ALL}
        for record in self._jobs.values():
            counts[record.state] += 1
        return counts

    def health(self) -> Dict[str, Any]:
        """JSON-ready liveness/telemetry snapshot (``GET /v1/health``)."""
        return {
            "status": "closing" if self._closing else "ok",
            "version": __version__,
            "started_at": round(self.started_at, 6),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "store": None if self.store is None else str(self.store.root),
            "jobs": self.state_counts(),
            "running": self._current_job_id,
        }

    async def store_summary(self) -> Optional[Dict[str, Any]]:
        """The shared store's telemetry, or None when caching is disabled."""
        if self.store is None:
            return None
        assert self._loop is not None and self._probe is not None
        return await self._loop.run_in_executor(self._probe, self.store.summary)

    def metrics_registry(self) -> MetricsRegistry:
        """The process registry with the service's live gauges refreshed.

        Serves ``GET /v1/metrics``; the refresh is a handful of dict
        writes, cheap enough for the loop thread.
        """
        registry = get_registry()
        counts = self.state_counts()
        registry.set_gauge("repro_service_queue_depth", counts[JobState.QUEUED])
        registry.set_gauge("repro_service_jobs_running", counts[JobState.RUNNING])
        return registry

    # -- cancellation ------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        Queued jobs cancel immediately; the running job's cancel event
        makes the orchestrator stop dispatching further architectures
        (already-dispatched ones drain — job-granular, see
        :class:`~repro.campaign.orchestrator.CampaignCancelled`).
        """
        record = self._jobs[job_id]
        if record.terminal:
            return False
        record.cancel_event.set()
        if record.state == JobState.QUEUED:
            self._finalize(record, JobState.CANCELLED, None, None, None)
        return True

    # -- event streaming ---------------------------------------------------------

    async def stream(self, job_id: str, since: int = 0):
        """Async-iterate a job's events from ``since`` until it is terminal.

        Replays the existing log first, then follows live publishes; the
        generator ends once the job is terminal and fully replayed, so a
        consumer that drains it has seen the final state transition.
        """
        record = self._jobs[job_id]
        index = max(0, since)
        while True:
            record.changed.clear()
            while index < len(record.events):
                yield record.events[index]
                index += 1
            if record.terminal:
                return
            await record.changed.wait()

    # -- execution ---------------------------------------------------------------

    async def _scheduler(self) -> None:
        """Pull jobs off the priority queue, one campaign at a time."""
        assert self._queue is not None and self._loop is not None
        while True:
            _, _, job_id = await self._queue.get()
            record = self._jobs.get(job_id)
            if record is None or record.state != JobState.QUEUED:
                continue  # cancelled while queued (and maybe dropped since)
            self._current_job_id = job_id
            try:
                await self._loop.run_in_executor(
                    self._runner, self._execute, record
                )
            finally:
                self._current_job_id = None

    def _execute(self, record: JobRecord) -> None:
        """Run one campaign on the runner thread, publishing to the loop."""
        assert self._loop is not None
        loop = self._loop

        def post(callback, *args) -> None:
            loop.call_soon_threadsafe(callback, *args)

        if record.cancel_event.is_set():
            post(self._finalize, record, JobState.CANCELLED, None, None, None)
            return
        post(self._transition, record, JobState.RUNNING, {})
        try:
            report = run_campaign(
                record.spec,
                store=self.store,
                workers=self.workers,
                progress=lambda line: post(
                    record.publish, "progress", {"line": line}
                ),
                on_result=lambda result: post(
                    record.publish,
                    "result",
                    {
                        "arch": result.job.arch,
                        "ok": result.ok,
                        "cached": result.cached,
                        "seconds": round(result.seconds, 6),
                        "failed_stages": result.failed_stages(),
                    },
                ),
                should_stop=record.cancel_event.is_set,
                trace=True if self.trace else None,
            )
        except CampaignCancelled as exc:
            post(self._finalize, record, JobState.CANCELLED, None, None, str(exc))
        except Exception:
            post(
                self._finalize,
                record,
                JobState.FAILED,
                None,
                None,
                traceback.format_exc(),
            )
        else:
            post(
                self._finalize,
                record,
                JobState.DONE,
                report.as_dict(),
                report.all_ok(),
                None,
            )

    # -- state transitions (loop thread only) ------------------------------------

    def _transition(self, record: JobRecord, state: str, data: Dict[str, Any]) -> None:
        """Move a record to a new state and publish it (terminal states stick)."""
        if record.terminal:
            return
        record.state = state
        now = time.time()
        if state == JobState.RUNNING:
            record.started_at = now
            get_registry().observe(
                "repro_service_queue_wait_seconds", max(0.0, now - record.submitted_at)
            )
        if state in JobState.TERMINAL:
            record.finished_at = now
            get_registry().inc("repro_service_jobs_total", state=state)
            if self._active_key.get(record.key) == record.id:
                del self._active_key[record.key]
        record.publish("state", {"state": state, **data})
        if state in JobState.TERMINAL:
            self._retire(record)

    def _retire(self, record: JobRecord) -> None:
        """Keep at most ``_RETAINED_FINISHED_JOBS`` finished records, dropping the oldest.

        A finished record no longer holds its ``_active_key`` entry (the
        terminal transition released it).  A stream already following a
        dropped record holds it and ends normally; a later lookup of its
        id answers 404.
        """
        self._finished.append(record.id)
        while len(self._finished) > _RETAINED_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    def _finalize(
        self,
        record: JobRecord,
        state: str,
        report: Optional[Dict[str, Any]],
        ok: Optional[bool],
        error: Optional[str],
    ) -> None:
        """Record a terminal outcome exactly once (loop thread only)."""
        if record.terminal:
            return
        record.report = report
        record.ok = ok
        record.error = error
        data: Dict[str, Any] = {"ok": ok}
        if report is not None:
            data["passed"] = report.get("passed")
            data["total"] = report.get("total")
            data["wall_seconds"] = report.get("wall_seconds")
            data["from_cache"] = record.from_cache
        if error is not None:
            data["error"] = error
        self._transition(record, state, data)
