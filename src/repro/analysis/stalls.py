"""Stall classification: necessary versus unnecessary.

The paper's central definition: "a performance bug is a pipeline stall for
which there is no functional justification".  Given a simulation trace and
the functional specification, this module classifies every observed stall
cycle of every stage as *necessary* (some functional stall condition held)
or *unnecessary* (none held — the interlock could have let the stage move).

The classifier evaluates the specification's stall conditions on the same
per-cycle signal samples the assertion monitor uses, so an unnecessary
stall here corresponds one-to-one with a performance-assertion violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..expr.compile import WORD_BITS, compile_outputs, iter_set_bits, tail_mask
from ..pipeline.trace import SimulationTrace
from ..spec.functional import FunctionalSpec


@dataclass
class StageStallStats:
    """Stall accounting for one pipeline stage."""

    moe: str
    total_cycles: int = 0
    stall_cycles: int = 0
    necessary_stalls: int = 0
    unnecessary_stalls: int = 0
    unnecessary_cycles: List[int] = field(default_factory=list)

    @property
    def stall_rate(self) -> float:
        """Fraction of cycles the stage reported a stall."""
        if self.total_cycles == 0:
            return 0.0
        return self.stall_cycles / self.total_cycles

    @property
    def unnecessary_rate(self) -> float:
        """Fraction of stall cycles with no functional justification."""
        if self.stall_cycles == 0:
            return 0.0
        return self.unnecessary_stalls / self.stall_cycles

    def as_row(self) -> Dict[str, object]:
        """Row for report tables."""
        return {
            "stage": self.moe.rsplit(".", 1)[0],
            "stalls": self.stall_cycles,
            "necessary": self.necessary_stalls,
            "unnecessary": self.unnecessary_stalls,
            "stall rate": f"{self.stall_rate:.2%}",
            "unnecessary rate": f"{self.unnecessary_rate:.2%}",
        }


@dataclass
class StallBreakdown:
    """Whole-pipeline stall classification for one trace."""

    trace_name: str
    per_stage: Dict[str, StageStallStats] = field(default_factory=dict)

    def total_stalls(self) -> int:
        """Sum of stall cycles over all stages."""
        return sum(stats.stall_cycles for stats in self.per_stage.values())

    def total_unnecessary(self) -> int:
        """Sum of unnecessary stall cycles over all stages."""
        return sum(stats.unnecessary_stalls for stats in self.per_stage.values())

    def total_necessary(self) -> int:
        """Sum of necessary stall cycles over all stages."""
        return sum(stats.necessary_stalls for stats in self.per_stage.values())

    def worst_stage(self) -> Optional[str]:
        """The stage with the most unnecessary stalls, or None."""
        worst = None
        worst_count = 0
        for moe, stats in self.per_stage.items():
            if stats.unnecessary_stalls > worst_count:
                worst = moe
                worst_count = stats.unnecessary_stalls
        return worst

    def rows(self) -> List[Dict[str, object]]:
        """Per-stage rows for report tables."""
        return [stats.as_row() for stats in self.per_stage.values()]

    def describe(self) -> str:
        """Multi-line summary."""
        lines = [
            f"Stall breakdown for {self.trace_name}:",
            f"  total stall cycles:      {self.total_stalls()}",
            f"  necessary stalls:        {self.total_necessary()}",
            f"  unnecessary stalls:      {self.total_unnecessary()}",
        ]
        worst = self.worst_stage()
        if worst is not None:
            lines.append(f"  worst stage:             {worst}")
        return "\n".join(lines)


def classify_stalls(
    trace: SimulationTrace,
    spec: FunctionalSpec,
    derivation=None,
) -> StallBreakdown:
    """Classify every stall cycle in a trace against the functional spec.

    The justification formulas are compiled together into one bit-parallel
    word function (:mod:`repro.expr.compile`) and evaluated 64 cycles per
    call over
    the trace's packed signal columns — the same bulk path the assertion
    monitor and the coverage scorer use — instead of one expression-tree
    walk per stage per cycle.

    Args:
        trace: the simulation trace to classify.
        spec: the functional specification providing the stall conditions.
        derivation: optional :class:`~repro.spec.derivation.DerivationResult`;
            when given, necessity is judged on its materialized closed-form
            stall conditions ``¬MOE_i`` over primary inputs only — a stall
            is then *unnecessary* exactly when the most liberal interlock
            would have let the stage move, independent of the moe values
            the (possibly buggy) implementation drove for the other stages.
            Without it, the per-stage conditions are evaluated on the
            observed signal sample, as the monitors do.
    """
    breakdown = StallBreakdown(
        trace_name=f"{trace.architecture_name}/{trace.interlock_name}"
    )
    for clause in spec.clauses:
        breakdown.per_stage[clause.moe] = StageStallStats(moe=clause.moe)
    num_cycles = trace.num_cycles()
    if num_cycles == 0:
        return breakdown

    if derivation is not None:
        stall_formulas = derivation.stall_expressions()
    else:
        stall_formulas = {clause.moe: clause.condition for clause in spec.clauses}
    compiled = compile_outputs(stall_formulas)
    # A moe flag the trace never sampled counts as "moving or empty".
    columns = trace.pack_signal_columns(
        list(dict.fromkeys([*stall_formulas, *compiled.names])),
        defaults={moe: True for moe in stall_formulas},
    )

    for moe, justified in zip(compiled.outputs, compiled.evaluate_packed(columns, num_cycles)):
        stats = breakdown.per_stage[moe]
        stats.total_cycles = num_cycles
        moe_column = columns[moe]
        for word_index, justified_word in enumerate(justified):
            mask = tail_mask(num_cycles, word_index)
            stalled = ~moe_column[word_index] & mask
            if not stalled:
                continue
            stats.stall_cycles += stalled.bit_count()
            stats.necessary_stalls += (stalled & justified_word).bit_count()
            unnecessary = stalled & ~justified_word
            stats.unnecessary_stalls += unnecessary.bit_count()
            for bit in iter_set_bits(unnecessary):
                stats.unnecessary_cycles.append(
                    trace.record(word_index * WORD_BITS + bit).cycle
                )
    return breakdown
