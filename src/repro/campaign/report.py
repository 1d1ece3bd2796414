"""Aggregate pass/fail/timing report of a verification campaign."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis import rate, render_table, summarize_timings
from .runner import JobResult

REPORT_SCHEMA = 1


@dataclass
class CampaignReport:
    """Everything a campaign run produced, in job order.

    ``cache`` is the campaign's store traffic as the seven-key tally of
    :func:`~repro.campaign.store.store_tally` — the metrics-registry
    delta across the run, worker deltas folded in — or None when the
    campaign ran without a store.  Being a registry delta, it also
    counts lookups other threads of the process made meanwhile (the
    service daemon's probe thread).  ``trace`` is present only for
    traced runs: the correlation id plus per-span-name rollups (count,
    total and max seconds) over every span the campaign and its workers
    recorded.
    """

    name: str
    results: List[JobResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    cache: Optional[Dict[str, int]] = None
    trace: Optional[Dict[str, Any]] = None

    # -- aggregation -------------------------------------------------------------

    def total(self) -> int:
        """Number of jobs in the campaign."""
        return len(self.results)

    def passed(self) -> List[JobResult]:
        """Jobs whose every stage held."""
        return [result for result in self.results if result.ok]

    def failed(self) -> List[JobResult]:
        """Jobs with a failing stage or an error."""
        return [result for result in self.results if not result.ok]

    def errored(self) -> List[JobResult]:
        """The subset of failures that crashed rather than refuted."""
        return [result for result in self.results if result.error is not None]

    def cached(self) -> List[JobResult]:
        """Jobs answered by the result store instead of fresh work."""
        return [result for result in self.results if result.cached]

    def all_ok(self) -> bool:
        """True when every job passed."""
        return all(result.ok for result in self.results)

    def stage_pass_rates(self) -> Dict[str, str]:
        """Per-stage pass rate over the jobs that ran the stage."""
        totals: Dict[str, int] = {}
        passes: Dict[str, int] = {}
        for result in self.results:
            for stage in result.stages:
                totals[stage.name] = totals.get(stage.name, 0) + 1
                if stage.ok:
                    passes[stage.name] = passes.get(stage.name, 0) + 1
        return {
            name: rate(passes.get(name, 0), totals[name]) for name in totals
        }

    def timing_summary(self) -> Dict[str, float]:
        """Job-seconds statistics over the fresh (non-cached) jobs."""
        return summarize_timings(
            [result.seconds for result in self.results if not result.cached]
        )

    def cache_hits(self) -> int:
        """Store lookups of any kind answered from disk."""
        c = self.cache
        return 0 if c is None else c["hits"] + c["artifact_hits"] + c["stage_hits"]

    def cache_misses(self) -> int:
        """Store lookups of any kind that required fresh work."""
        c = self.cache
        return 0 if c is None else c["misses"] + c["artifact_misses"] + c["stage_misses"]

    def cache_corrupt(self) -> int:
        """Store entries that existed but failed validation."""
        return 0 if self.cache is None else self.cache["corrupt"]

    # -- rendering ---------------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """Per-job table rows."""
        rows = []
        for result in self.results:
            failing = ",".join(result.failed_stages())
            if result.error is not None and not failing:
                failing = "(crashed)"
            rows.append(
                {
                    "architecture": result.job.arch,
                    "ok": "yes" if result.ok else "NO",
                    "cached": "yes" if result.cached else "-",
                    "seconds": f"{result.seconds:.3f}",
                    "failing stages": failing or "-",
                }
            )
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready aggregate (written by ``repro campaign --report``)."""
        payload = {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "total": self.total(),
            "passed": len(self.passed()),
            "failed": len(self.failed()),
            "errored": len(self.errored()),
            "cached": len(self.cached()),
            "cache_hits": self.cache_hits(),
            "cache_misses": self.cache_misses(),
            "cache_corrupt": self.cache_corrupt(),
            "stage_pass_rates": self.stage_pass_rates(),
            "timing": self.timing_summary(),
            "jobs": [result.as_dict() for result in self.results],
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache)
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    def describe(self) -> str:
        """Multi-line human-readable campaign summary."""
        fresh = self.total() - len(self.cached())
        timing = self.timing_summary()
        lines = [
            f"Campaign {self.name!r}: {rate(len(self.passed()), self.total())} passed, "
            f"{len(self.cached())} cached, {fresh} fresh, "
            f"{self.workers} workers, wall {self.wall_seconds:.3f}s",
        ]
        if fresh:
            lines.append(
                f"  fresh job seconds: total {timing['total']:.3f}, "
                f"mean {timing['mean']:.3f}, max {timing['max']:.3f}"
            )
        if self.cache is not None:
            c = self.cache
            lines.append(
                f"  store: jobs {c['hits']}/{c['hits'] + c['misses']} hit, "
                f"artifacts {c['artifact_hits']}/{c['artifact_hits'] + c['artifact_misses']} hit, "
                f"stages {c['stage_hits']}/{c['stage_hits'] + c['stage_misses']} hit, "
                f"{c['corrupt']} corrupt"
            )
        for stage, stage_rate in sorted(self.stage_pass_rates().items()):
            lines.append(f"  stage {stage}: {stage_rate}")
        if self.trace is not None:
            rollups = self.trace.get("rollups", {})
            top = sorted(
                rollups.items(),
                key=lambda item: item[1].get("seconds_total", 0.0),
                reverse=True,
            )[:5]
            hot = ", ".join(
                f"{name} {entry['seconds_total']:.3f}s/{entry['count']}"
                for name, entry in top
            )
            lines.append(
                f"  trace {self.trace.get('trace_id')}: "
                f"{sum(e.get('count', 0) for e in rollups.values())} spans"
                + (f"; hottest: {hot}" if hot else "")
            )
        lines.append(render_table(self.rows()))
        return "\n".join(lines)
