"""Job records and submission parsing for the verification service.

A *job* is one campaign submitted by one client (possibly a single
architecture wrapped in a one-job campaign).  Its lifecycle is a small
state machine::

    queued ──▶ running ──▶ done        (campaign ran; ``ok`` is the verdict)
       │          │  └───▶ failed      (orchestration crashed; see ``error``)
       └──────────┴──────▶ cancelled   (client or shutdown cancelled it)

Every observable change is appended to the record's ordered event log
(state transitions, per-job progress lines, streaming per-architecture
results, the final report), which is what ``GET /v1/jobs/<id>/events``
replays and follows.  The event log is append-only and lives on the
daemon's event loop thread; worker threads publish into it via
``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..campaign.spec import CampaignSpec, CampaignSpecError, JobSpec


class JobState:
    """String constants for the job lifecycle (also the wire format)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})
    #: Every state, in lifecycle order (used to validate filters).
    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)


class SubmissionError(ValueError):
    """Raised for malformed or unresolvable submissions (HTTP 400)."""


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's append-only event log.

    ``data`` is flattened into the wire representation, so an event
    serializes as ``{"seq": 3, "at": ..., "kind": "progress", ...data}``;
    ``seq`` is the log index, which is also the ``since`` cursor for
    resuming a dropped event stream.
    """

    seq: int
    kind: str
    at: float
    data: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        payload = {"seq": self.seq, "at": round(self.at, 6), "kind": self.kind}
        payload.update(self.data)
        return payload


class JobRecord:
    """One submitted campaign and everything observed about it so far.

    Mutable state (``state``, ``events``, timestamps, ``report``) is only
    ever touched on the daemon's event loop thread; the runner thread
    communicates through ``cancel_event`` (loop → thread) and
    ``call_soon_threadsafe`` publishes (thread → loop).  ``changed`` is an
    :class:`asyncio.Event` set on every publish so any number of stream
    consumers can wait for news without polling.
    """

    def __init__(
        self, job_id: str, spec: CampaignSpec, priority: int, submitted_at: float
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.key = spec.campaign_key()
        self.state: str = JobState.QUEUED
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.ok: Optional[bool] = None
        self.error: Optional[str] = None
        self.report: Optional[Dict[str, Any]] = None
        self.from_cache = False
        self.events: List[JobEvent] = []
        self.changed = asyncio.Event()
        self.cancel_event = threading.Event()

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def publish(self, kind: str, data: Dict[str, Any]) -> JobEvent:
        """Append an event and wake every stream consumer (loop thread only)."""
        event = JobEvent(seq=len(self.events), kind=kind, at=time.time(), data=data)
        self.events.append(event)
        self.changed.set()
        return event

    def summary(self) -> Dict[str, Any]:
        """The compact JSON representation used in job listings."""
        return {
            "id": self.id,
            "state": self.state,
            "ok": self.ok,
            "priority": self.priority,
            "campaign": self.spec.name,
            "jobs": len(self.spec.jobs),
            "archs": [job.arch for job in self.spec.jobs],
            "from_cache": self.from_cache,
            "submitted_at": round(self.submitted_at, 6),
            "started_at": None
            if self.started_at is None
            else round(self.started_at, 6),
            "finished_at": None
            if self.finished_at is None
            else round(self.finished_at, 6),
            "events": len(self.events),
            "error": self.error,
        }

    def detail(self) -> Dict[str, Any]:
        """The full JSON representation (summary + spec + final report)."""
        payload = self.summary()
        payload["spec"] = self.spec.to_dict()
        payload["report"] = self.report
        return payload


#: Top-level keys a submission payload may carry.
_SUBMISSION_KEYS = frozenset(
    {
        "campaign",
        "job",
        "arch",
        "priority",
        "stages",
        "workload_length",
        "workload_seed",
        "num_programs",
        "max_faults",
    }
)

#: Per-job knobs accepted alongside the ``arch`` shorthand.
_ARCH_KNOBS = ("workload_length", "workload_seed", "num_programs", "max_faults")


def parse_submission(payload: Any) -> Tuple[CampaignSpec, int]:
    """Normalize a submission payload into ``(CampaignSpec, priority)``.

    Three equivalent shapes are accepted (exactly one per submission):

    ``{"arch": "fam-r4w2d5s1-bypass", "stages": "properties,derive"}``
        the shorthand — one architecture with optional per-job knobs;
    ``{"job": {...JobSpec dict...}}``
        one fully-specified job;
    ``{"campaign": {...CampaignSpec dict...}}``
        a whole multi-job campaign.

    ``priority`` (int, default 0; larger runs sooner) rides alongside any
    shape.  Raises :class:`SubmissionError` on anything malformed — the
    HTTP layer maps that to a 400 with the message.
    """
    if not isinstance(payload, dict):
        raise SubmissionError("submission must be a JSON object")
    unknown = set(payload) - _SUBMISSION_KEYS
    if unknown:
        raise SubmissionError(f"unknown submission fields: {sorted(unknown)}")
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise SubmissionError("priority must be an integer")
    sources = [k for k in ("campaign", "job", "arch") if k in payload]
    if len(sources) != 1:
        raise SubmissionError(
            "submission needs exactly one of 'campaign', 'job' or 'arch'"
        )
    source = sources[0]
    if source != "arch":
        stray = [k for k in ("stages",) + _ARCH_KNOBS if k in payload]
        if stray:
            raise SubmissionError(
                f"fields {stray} only apply to 'arch' submissions; put them "
                f"inside the {source!r} object instead"
            )
    try:
        if source == "campaign":
            spec = CampaignSpec.from_dict(payload["campaign"])
        elif source == "job":
            job = JobSpec.from_dict(payload["job"])
            spec = CampaignSpec(name=f"job-{job.arch}", jobs=(job,), workers=1)
        else:
            arch = payload["arch"]
            knobs: Dict[str, Any] = {name: payload[name] for name in _ARCH_KNOBS if name in payload}
            stages = payload.get("stages")
            if isinstance(stages, str):
                knobs["stages"] = [part.strip() for part in stages.split(",") if part.strip()]
            elif stages is not None:
                knobs["stages"] = stages
            job = JobSpec(arch=arch, **knobs)
            spec = CampaignSpec(name=f"job-{arch}", jobs=(job,), workers=1)
    except CampaignSpecError as exc:
        raise SubmissionError(str(exc)) from exc
    return spec, priority
