"""Aggregation helpers shared by the batch reports.

The campaign orchestrator (and any future sweep) reduces many per-job
outcomes to tables and timing summaries; the rendering lives here, next
to the other analysis reducers, so every report in the code base formats
rows the same way.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence


def render_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    indent: str = "  ",
) -> str:
    """Fixed-width ASCII table from a list of row dictionaries.

    Columns default to the keys of the first row, in insertion order;
    missing cells render empty.
    """
    if not rows:
        return f"{indent}(no rows)"
    names = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[str(row.get(name, "")) for name in names] for row in rows]
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) for i, name in enumerate(names)
    ]
    lines = [
        indent + "  ".join(name.ljust(widths[i]) for i, name in enumerate(names)),
        indent + "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        indent + "  ".join(row[i].ljust(widths[i]) for i in range(len(names)))
        for row in cells
    )
    return "\n".join(lines)


def rate(numerator: int, denominator: int) -> str:
    """``"x/y (z%)"`` pass-rate formatting; denominator 0 renders as n/a."""
    if denominator == 0:
        return "n/a"
    return f"{numerator}/{denominator} ({numerator / denominator:.0%})"


def summarize_timings(seconds: Sequence[float]) -> Dict[str, float]:
    """Total/mean/min/max of a list of durations (empty list → zeros)."""
    values = list(seconds)
    if not values:
        return {"total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
    total = sum(values)
    return {
        "total": round(total, 6),
        "mean": round(total / len(values), 6),
        "min": round(min(values), 6),
        "max": round(max(values), 6),
    }
