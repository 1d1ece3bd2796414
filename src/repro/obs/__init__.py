"""Observability: structured span tracing and a process-local metrics registry.

The package unifies the stack's previously scattered telemetry —
``BddManager.stats()`` kernel counters, result-store cache tallies,
per-stage wall-clock dicts — behind two zero-dependency primitives:

* :func:`span` — a context manager producing nested, monotonic-timed
  spans correlated by a per-campaign trace id that crosses the fork
  boundary into campaign workers (`repro.campaign.runner`) and back.
  Spans are recorded only while a :class:`Tracer` session is active;
  with no session the call returns a shared no-op object, so leaving
  instrumentation in hot paths costs a single thread-local lookup.
  Enable with ``REPRO_TRACE=1``, ``repro campaign --trace``, or
  ``repro serve --trace`` (same late-binding environment pattern as
  ``REPRO_SANITIZE``).

* :func:`get_registry` — the process-global :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms).  Metrics are always on:
  increments are dict operations, and campaign workers' deltas travel
  home with each job result and are folded into the parent registry.
  The service daemon serves the registry at ``GET /v1/metrics`` as
  Prometheus text or JSON.

Example
-------
>>> from repro.obs import Tracer, span
>>> tracer = Tracer()
>>> with tracer.activate():
...     with span("derive", arch="fam-r2w1d3s1-bypass"):
...         pass
>>> [s["name"] for s in tracer.spans]
['derive']

See ``docs/observability.md`` for the span model, the metric catalog,
and the endpoint reference.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    KernelWatch,
    MetricsRegistry,
    get_registry,
    record_kernel_stats,
)
from .render import render_rollup, render_waterfall
from .trace import (
    TRACE_SCHEMA,
    Tracer,
    annotate,
    dump_ndjson,
    load_ndjson,
    new_trace_id,
    rollup_spans,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "KernelWatch",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "Tracer",
    "annotate",
    "dump_ndjson",
    "get_registry",
    "load_ndjson",
    "new_trace_id",
    "record_kernel_stats",
    "render_rollup",
    "render_waterfall",
    "rollup_spans",
    "span",
    "tracing_enabled",
]
