"""Trace analysis: stall classification, coverage, throughput and batch aggregation."""

from .aggregate import rate, render_table, summarize_timings
from .coverage import (
    CoverageReport,
    DisjunctCoverage,
    StageCoverage,
    coverage_of,
)
from .stalls import StageStallStats, StallBreakdown, classify_stalls
from .stats import (
    Comparison,
    ThroughputStats,
    compare_traces,
    stats_table,
)

__all__ = [
    "rate",
    "render_table",
    "summarize_timings",
    "CoverageReport",
    "DisjunctCoverage",
    "StageCoverage",
    "coverage_of",
    "StageStallStats",
    "StallBreakdown",
    "classify_stalls",
    "Comparison",
    "ThroughputStats",
    "compare_traces",
    "stats_table",
]
