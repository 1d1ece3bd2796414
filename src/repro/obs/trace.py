"""Structured span tracing with cross-process correlation ids.

A *span* is a named, timed region of work.  Finished spans are plain
dicts (JSON- and NDJSON-ready)::

    {"trace": "t-1f3a9c2b77d04e55", "id": "a1b2-1", "parent": None,
     "name": "derive", "at": 1754500000.123456, "seconds": 0.412345,
     "pid": 4242, "ok": True, "attrs": {"arch": "fam-r2w1d3s1-bypass"}}

``trace`` is the correlation id shared by every span of one campaign,
across the parent orchestrator and every forked worker.  ``at`` is a
wall-clock timestamp (``time.time()``) so spans from different
processes align on one waterfall; ``seconds`` is measured with
``time.perf_counter()`` pairs, which on Linux read the system-wide
CLOCK_MONOTONIC.

Spans are recorded only while a :class:`Tracer` is *active* on the
current thread.  :func:`span` with no active tracer returns a shared
no-op context manager — the instrumentation left in stage and kernel
code costs one thread-local attribute lookup when tracing is off.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

TRACE_SCHEMA = 1

_TLS = threading.local()

#: Process-wide span id source, shared by every tracer: a job tracer and
#: the campaign tracer in the same process must never mint the same id
#: (the pid prefix keeps forked workers distinct).  ``itertools.count``
#: is atomic under the GIL.
_SPAN_IDS = itertools.count(1)


def tracing_enabled() -> bool:
    """Whether span collection is requested via the environment.

    Late-binding, like ``REPRO_SANITIZE``: the variable is consulted at
    each call, so tests and the CLI can flip it without reimporting.
    """
    return bool(os.environ.get("REPRO_TRACE"))


def new_trace_id() -> str:
    """A fresh correlation id, unique across processes and hosts."""
    return f"t-{uuid.uuid4().hex[:16]}"


def _active_tracer() -> Optional["Tracer"]:
    return getattr(_TLS, "tracer", None)


class Tracer:
    """Collects finished spans for one trace session.

    A tracer does nothing until activated; activation installs it on
    the *current thread* only, so worker threads and processes open
    their own sessions (sharing the ``trace_id`` carried in the job
    payload).  ``root_parent`` links this session's root spans under a
    span from another process — campaign workers pass the parent's
    campaign span id so the merged waterfall forms one tree.
    """

    def __init__(self, trace_id: Optional[str] = None, root_parent: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self.root_parent = root_parent
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[_LiveSpan] = []

    def next_span_id(self) -> str:
        return f"{os.getpid():x}-{next(_SPAN_IDS)}"

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer on the current thread for the block."""
        previous = _active_tracer()
        _TLS.tracer = self
        try:
            yield self
        finally:
            _TLS.tracer = previous

    def summary(self) -> Dict[str, Any]:
        """Trace id plus per-name rollups, for report embedding."""
        return {"trace_id": self.trace_id, "rollups": rollup_spans(self.spans)}


class _NullSpan:
    """Shared do-nothing span returned when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "at", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1].span_id if stack else tracer.root_parent
        self.span_id = tracer.next_span_id()
        stack.append(self)
        self.at = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        seconds = time.perf_counter() - self._start
        tracer = self.tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        tracer.spans.append(
            {
                "trace": tracer.trace_id,
                "id": self.span_id,
                "parent": self.parent,
                "name": self.name,
                "at": round(self.at, 6),
                "seconds": round(seconds, 6),
                "pid": os.getpid(),
                "ok": exc_type is None,
                "attrs": self.attrs,
            }
        )
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)


def span(name: str, /, **attrs: Any):
    """Open a span named ``name`` on the active tracer, if any.

    Usable both bare and with ``as``::

        with span("derive", arch=job.arch) as sp:
            ...
            sp.annotate(iterations=n)

    With no active tracer this returns a shared no-op object — safe and
    cheap to leave in hot paths.
    """
    tracer = _active_tracer()
    if tracer is None:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span, if any."""
    tracer = _active_tracer()
    if tracer is not None and tracer._stack:
        tracer._stack[-1].attrs.update(attrs)


def dump_ndjson(spans: Iterable[Dict[str, Any]]) -> str:
    """Serialize spans one-JSON-object-per-line (trailing newline)."""
    lines = [json.dumps(record, sort_keys=True) for record in spans]
    return "\n".join(lines) + "\n" if lines else ""


def load_ndjson(text: str) -> List[Dict[str, Any]]:
    """Parse NDJSON produced by :func:`dump_ndjson`.

    Raises ``ValueError`` on malformed lines, naming the line number.
    """
    spans: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed NDJSON trace at line {lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"malformed NDJSON trace at line {lineno}: not an object")
        spans.append(record)
    return spans


def rollup_spans(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans by name: count, total and max seconds.

    The rollup is what ``CampaignReport`` embeds — a compact answer to
    "where did the campaign spend its time" without shipping every span.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        name = record.get("name", "?")
        seconds = float(record.get("seconds", 0.0))
        entry = totals.setdefault(name, {"count": 0, "seconds_total": 0.0, "seconds_max": 0.0})
        entry["count"] += 1
        entry["seconds_total"] += seconds
        if seconds > entry["seconds_max"]:
            entry["seconds_max"] = seconds
    for entry in totals.values():
        entry["seconds_total"] = round(entry["seconds_total"], 6)
        entry["seconds_max"] = round(entry["seconds_max"], 6)
    return totals
