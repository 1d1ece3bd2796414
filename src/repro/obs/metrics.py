"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Metrics are *always on* — an increment is a couple of dict operations
under a lock — so the service's ``GET /v1/metrics`` endpoint has data
even when span tracing is disabled.  Campaign workers run in forked
processes with their own registry; :meth:`MetricsRegistry.delta_since`
captures what a job added, the delta travels home in ``JobResult``, and
the parent folds it back with :meth:`MetricsRegistry.fold` — so the
parent's registry counts its workers' store traffic too.

Rendering targets both machine shapes the service exposes:
:meth:`MetricsRegistry.samples` (JSON) and
:meth:`MetricsRegistry.render_prometheus` (text exposition format,
version 0.0.4 — histograms emit cumulative ``_bucket``/``_sum``/
``_count`` series).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

#: Default histogram buckets (seconds).  Spanning 1 ms to 2 min covers
#: everything from a cached store read to a full-size family campaign.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.25,
    1.0,
    5.0,
    30.0,
    120.0,
)

#: HELP text served with the Prometheus exposition, keyed by metric name.
HELP: Dict[str, str] = {
    "repro_kernel_cache_hits_total": "BDD apply/compose/ISOP cache hits",
    "repro_kernel_cache_misses_total": "BDD apply/compose/ISOP cache misses",
    "repro_kernel_gc_runs_total": "BDD garbage-collection sweeps",
    "repro_kernel_gc_reclaimed_total": "BDD nodes reclaimed by garbage collection",
    "repro_kernel_live_nodes": "live BDD nodes at the last kernel checkpoint",
    "repro_kernel_load_factor": "unique-table load factor at the last kernel checkpoint",
    "repro_store_reads_total": "result-store reads by entry kind and hit/miss outcome",
    "repro_store_corrupt_total": "result-store entries dropped as corrupt",
    "repro_store_write_errors_total": "result-store writes that failed, by entry kind",
    "repro_campaign_runs_total": "campaigns executed by this process",
    "repro_campaign_jobs_total": "campaign jobs by outcome (ok/failed/cached)",
    "repro_job_seconds": "wall-clock seconds per verification job",
    "repro_stage_seconds": "wall-clock seconds per pipeline stage",
    "repro_service_submissions_total": "service submissions accepted",
    "repro_service_coalesced_total": "submissions coalesced onto an in-flight duplicate",
    "repro_service_cache_answers_total": "submissions answered terminally from the store",
    "repro_service_jobs_total": "service jobs reaching a terminal state",
    "repro_service_queue_wait_seconds": "queued-to-running latency per service job",
    "repro_service_queue_depth": "jobs currently queued",
    "repro_service_jobs_running": "jobs currently executing",
    "repro_trace_spans_total": "spans recorded by the tracing layer",
    "repro_fault_mutants_total": "fault mutants derived, or reused from their derivation",
    "repro_checker_claims_total": "property-checker claims by outcome (folded/proved/refuted)",
}


def _labels_key(labels: Dict[str, Any]) -> str:
    return ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))


class MetricsRegistry:
    """Thread-safe counters, gauges and histograms.

    Samples are keyed by metric name plus a sorted label rendering, so
    ``inc("repro_stage_seconds", stage="derive")`` and the Prometheus
    output agree on identity.  Counter and histogram deltas fold across
    processes; gauges are point-in-time and never fold.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> [name, labels, value] for counters/gauges;
        # key -> [name, labels, {"buckets": [...], "counts": [...], "sum": s, "count": n}]
        self._counters: Dict[str, List[Any]] = {}
        self._gauges: Dict[str, List[Any]] = {}
        self._histograms: Dict[str, List[Any]] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, Any]) -> str:
        if not labels:
            return name
        return f"{name}{{{_labels_key(labels)}}}"

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` to a counter (created at zero on first use)."""
        key = self._key(name, labels)
        with self._lock:
            entry = self._counters.get(key)
            if entry is None:
                self._counters[key] = [name, labels, amount]
            else:
                entry[2] += amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        key = self._key(name, labels)
        with self._lock:
            self._gauges[key] = [name, labels, value]

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into a histogram over :data:`DEFAULT_BUCKETS`."""
        key = self._key(name, labels)
        with self._lock:
            entry = self._histograms.get(key)
            if entry is None:
                state = {
                    "buckets": list(DEFAULT_BUCKETS),
                    "counts": [0] * (len(DEFAULT_BUCKETS) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                entry = [name, labels, state]
                self._histograms[key] = entry
            state = entry[2]
            state["counts"][bisect_left(state["buckets"], value)] += 1
            state["sum"] += value
            state["count"] += 1

    # -- snapshots, deltas, folding ------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A deep copy of the registry, suitable for later ``delta_since``."""
        with self._lock:
            return {
                "counters": {k: [e[0], dict(e[1]), e[2]] for k, e in self._counters.items()},
                "gauges": {k: [e[0], dict(e[1]), e[2]] for k, e in self._gauges.items()},
                "histograms": {
                    k: [
                        e[0],
                        dict(e[1]),
                        {
                            "buckets": list(e[2]["buckets"]),
                            "counts": list(e[2]["counts"]),
                            "sum": e[2]["sum"],
                            "count": e[2]["count"],
                        },
                    ]
                    for k, e in self._histograms.items()
                },
            }

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What counters/histograms gained since ``before`` (a snapshot).

        Gauges are excluded — they are point-in-time readings of the
        process that set them and do not transfer.  Zero entries are
        dropped so worker payloads stay small.
        """
        now = self.snapshot()
        counters: Dict[str, List[Any]] = {}
        for key, (name, labels, value) in now["counters"].items():
            prior = before.get("counters", {}).get(key)
            gained = value - (prior[2] if prior else 0)
            if gained:
                counters[key] = [name, labels, gained]
        histograms: Dict[str, List[Any]] = {}
        for key, (name, labels, state) in now["histograms"].items():
            prior = before.get("histograms", {}).get(key)
            prior_counts = prior[2]["counts"] if prior else [0] * len(state["counts"])
            counts = [a - b for a, b in zip(state["counts"], prior_counts)]
            count = state["count"] - (prior[2]["count"] if prior else 0)
            if count:
                histograms[key] = [
                    name,
                    labels,
                    {
                        "buckets": state["buckets"],
                        "counts": counts,
                        "sum": state["sum"] - (prior[2]["sum"] if prior else 0.0),
                        "count": count,
                    },
                ]
        return {"counters": counters, "histograms": histograms}

    def fold(self, delta: Dict[str, Any]) -> None:
        """Fold a worker's ``delta_since`` payload into this registry."""
        for key, (name, labels, gained) in delta.get("counters", {}).items():
            with self._lock:
                entry = self._counters.get(key)
                if entry is None:
                    self._counters[key] = [name, dict(labels), gained]
                else:
                    entry[2] += gained
        for key, (name, labels, state) in delta.get("histograms", {}).items():
            with self._lock:
                entry = self._histograms.get(key)
                if entry is None:
                    self._histograms[key] = [
                        name,
                        dict(labels),
                        {
                            "buckets": list(state["buckets"]),
                            "counts": list(state["counts"]),
                            "sum": state["sum"],
                            "count": state["count"],
                        },
                    ]
                else:
                    mine = entry[2]
                    if mine["buckets"] != list(state["buckets"]):
                        # Bucket layouts disagree (version skew across
                        # processes): keep sum/count, drop per-bucket detail.
                        mine["sum"] += state["sum"]
                        mine["count"] += state["count"]
                        continue
                    mine["counts"] = [a + b for a, b in zip(mine["counts"], state["counts"])]
                    mine["sum"] += state["sum"]
                    mine["count"] += state["count"]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- rendering ------------------------------------------------------

    def samples(self) -> List[Dict[str, Any]]:
        """Flat JSON rendering: one dict per sample, sorted by key."""
        out: List[Dict[str, Any]] = []
        snap = self.snapshot()
        for kind in ("counters", "gauges"):
            for _, (name, labels, value) in sorted(snap[kind].items()):
                out.append(
                    {
                        "name": name,
                        "type": "counter" if kind == "counters" else "gauge",
                        "labels": labels,
                        "value": value,
                    }
                )
        for _, (name, labels, state) in sorted(snap["histograms"].items()):
            out.append(
                {
                    "name": name,
                    "type": "histogram",
                    "labels": labels,
                    "buckets": state["buckets"],
                    "counts": state["counts"],
                    "sum": round(state["sum"], 6),
                    "count": state["count"],
                }
            )
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        snap = self.snapshot()
        lines: List[str] = []
        emitted_header = set()

        def header(name: str, mtype: str) -> None:
            if name in emitted_header:
                return
            emitted_header.add(name)
            help_text = HELP.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")

        def fmt(value: float) -> str:
            if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
                return str(int(value))
            return repr(value)

        for _, (name, labels, value) in sorted(snap["counters"].items()):
            header(name, "counter")
            suffix = f"{{{_labels_key(labels)}}}" if labels else ""
            lines.append(f"{name}{suffix} {fmt(value)}")
        for _, (name, labels, value) in sorted(snap["gauges"].items()):
            header(name, "gauge")
            suffix = f"{{{_labels_key(labels)}}}" if labels else ""
            lines.append(f"{name}{suffix} {fmt(value)}")
        for _, (name, labels, state) in sorted(snap["histograms"].items()):
            header(name, "histogram")
            cumulative = 0
            for bound, count in zip(state["buckets"], state["counts"]):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = fmt(float(bound))
                lines.append(f"{name}_bucket{{{_labels_key(bucket_labels)}}} {cumulative}")
            bucket_labels = dict(labels)
            bucket_labels["le"] = "+Inf"
            lines.append(f"{name}_bucket{{{_labels_key(bucket_labels)}}} {state['count']}")
            suffix = f"{{{_labels_key(labels)}}}" if labels else ""
            lines.append(f"{name}_sum{suffix} {round(state['sum'], 6)}")
            lines.append(f"{name}_count{suffix} {state['count']}")
        return "\n".join(lines) + "\n" if lines else ""


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (workers fold into the parent's)."""
    return _REGISTRY


# -- kernel checkpoints -----------------------------------------------

KERNEL_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "gc_runs",
    "gc_reclaimed",
)


class KernelWatch:
    """Stats-delta hook over a ``BddManager``.

    Snapshots ``manager.stats()`` at construction; :meth:`delta` reports
    what the monotone counters (cache traffic, GC sweeps) gained since,
    plus the current live-node count and unique-table load factor.  Used
    at pipeline checkpoints to annotate the open span and feed the kernel
    metrics without the manager knowing about either.
    """

    def __init__(self, manager: Any):
        self.manager = manager
        self._before = manager.stats().as_dict()

    def rebase(self, stats: Optional[Dict[str, Any]] = None) -> None:
        """Reset the baseline (e.g. per job against a warm manager)."""
        self._before = stats if stats is not None else self.manager.stats().as_dict()

    def delta(self) -> Dict[str, Any]:
        after = self.manager.stats().as_dict()
        out = {k: after[k] - self._before.get(k, 0) for k in KERNEL_COUNTERS}
        out["live_nodes"] = after["live_nodes"]
        out["load_factor"] = after["load_factor"]
        return out


def record_kernel_stats(delta: Dict[str, Any], registry: Optional[MetricsRegistry] = None) -> None:
    """Fold a :class:`KernelWatch` delta into the kernel metrics."""
    reg = registry if registry is not None else _REGISTRY
    for counter in KERNEL_COUNTERS:
        gained = delta.get(counter, 0)
        if gained:
            reg.inc(f"repro_kernel_{counter}_total", gained)
    if "live_nodes" in delta:
        reg.set_gauge("repro_kernel_live_nodes", delta["live_nodes"])
    if "load_factor" in delta:
        reg.set_gauge("repro_kernel_load_factor", delta["load_factor"])
