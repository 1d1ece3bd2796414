"""Specification coverage of simulation runs.

The paper is explicit that "even the best simulation is by no means
exhaustive, hence the fact that the assertions are not triggered during
simulation does not imply that the design satisfies the specification".
This module quantifies that gap for a concrete set of runs: for every
pipeline stage it measures which of the stall-condition disjuncts were ever
exercised, whether the stage was ever observed stalled and ever observed
moving, and how much of the (reachable) assertion antecedent space the
workload visited.

The numbers drive two things:

* the property-checking-versus-simulation benchmark, which shows injected
  bugs hiding exactly behind uncovered disjuncts, and
* workload tuning — a profile that leaves a disjunct uncovered cannot find
  bugs in the logic guarding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..expr.ast import Expr, Or
from ..expr.compile import compile_outputs
from ..expr.evaluate import UnboundVariableError
from ..expr.printer import to_text
from ..pipeline.trace import SimulationTrace
from ..spec.functional import FunctionalSpec

__all__ = [
    "DisjunctCoverage",
    "StageCoverage",
    "CoverageReport",
    "coverage_of",
]


@dataclass
class DisjunctCoverage:
    """Exercise counts for one disjunct of one stage's stall condition."""

    stage: str
    index: int
    condition: Expr
    hit_cycles: int = 0
    sole_justification_cycles: int = 0

    @property
    def covered(self) -> bool:
        """Was the disjunct ever true while the stage was observed?"""
        return self.hit_cycles > 0

    def describe(self) -> str:
        """Single-line rendering."""
        status = "covered" if self.covered else "NOT COVERED"
        return (
            f"{self.stage} disjunct {self.index} [{status}] "
            f"hits={self.hit_cycles} sole={self.sole_justification_cycles}: "
            f"{to_text(self.condition)}"
        )


@dataclass
class StageCoverage:
    """Coverage of one pipeline stage's stall clause."""

    moe: str
    disjuncts: List[DisjunctCoverage] = field(default_factory=list)
    cycles_observed: int = 0
    cycles_stalled: int = 0
    cycles_moving: int = 0
    cycles_condition_true: int = 0

    @property
    def disjunct_coverage(self) -> float:
        """Fraction of stall-condition disjuncts exercised at least once."""
        if not self.disjuncts:
            return 1.0
        return sum(1 for disjunct in self.disjuncts if disjunct.covered) / len(self.disjuncts)

    @property
    def uncovered_disjuncts(self) -> List[DisjunctCoverage]:
        """Disjuncts never exercised by the runs."""
        return [disjunct for disjunct in self.disjuncts if not disjunct.covered]

    def as_row(self) -> Dict[str, object]:
        """Row for report tables."""
        return {
            "moe flag": self.moe,
            "cycles": self.cycles_observed,
            "stalled": self.cycles_stalled,
            "moving": self.cycles_moving,
            "condition true": self.cycles_condition_true,
            "disjuncts": len(self.disjuncts),
            "disjuncts covered": sum(1 for d in self.disjuncts if d.covered),
            "disjunct coverage": f"{100.0 * self.disjunct_coverage:.1f}%",
        }


@dataclass
class CoverageReport:
    """Specification coverage accumulated over one or more traces."""

    spec_name: str
    stages: Dict[str, StageCoverage] = field(default_factory=dict)
    traces_merged: int = 0

    @property
    def overall_disjunct_coverage(self) -> float:
        """Fraction of all stall-condition disjuncts exercised."""
        disjuncts = [d for stage in self.stages.values() for d in stage.disjuncts]
        if not disjuncts:
            return 1.0
        return sum(1 for disjunct in disjuncts if disjunct.covered) / len(disjuncts)

    def uncovered(self) -> List[DisjunctCoverage]:
        """Every disjunct no run ever exercised."""
        return [
            disjunct
            for stage in self.stages.values()
            for disjunct in stage.uncovered_disjuncts
        ]

    def rows(self) -> List[Dict[str, object]]:
        """Per-stage rows for report tables."""
        return [stage.as_row() for stage in self.stages.values()]

    def describe(self) -> str:
        """Multi-line summary including the coverage holes."""
        lines = [
            f"Specification coverage for {self.spec_name} over {self.traces_merged} trace(s):",
            f"  overall disjunct coverage: {100.0 * self.overall_disjunct_coverage:.1f}%",
        ]
        for stage in self.stages.values():
            lines.append(
                f"  {stage.moe}: {100.0 * stage.disjunct_coverage:.1f}% "
                f"({sum(1 for d in stage.disjuncts if d.covered)}/{len(stage.disjuncts)} disjuncts), "
                f"stalled {stage.cycles_stalled}/{stage.cycles_observed} cycles"
            )
        holes = self.uncovered()
        if holes:
            lines.append("  uncovered disjuncts (bugs behind these cannot be seen by these runs):")
            for disjunct in holes:
                lines.append(f"    - {disjunct.stage}[{disjunct.index}]: {to_text(disjunct.condition)}")
        else:
            lines.append("  every stall-condition disjunct was exercised at least once")
        return "\n".join(lines)


def _disjuncts_of(condition: Expr) -> List[Expr]:
    if isinstance(condition, Or):
        return list(condition.operands)
    return [condition]


def _new_report(spec: FunctionalSpec) -> CoverageReport:
    report = CoverageReport(spec_name=spec.name)
    for clause in spec.clauses:
        stage = StageCoverage(moe=clause.moe)
        for index, disjunct in enumerate(_disjuncts_of(clause.condition)):
            stage.disjuncts.append(
                DisjunctCoverage(stage=clause.moe, index=index, condition=disjunct)
            )
        report.stages[clause.moe] = stage
    return report


def coverage_of(
    spec: FunctionalSpec,
    traces: Iterable[SimulationTrace],
) -> CoverageReport:
    """Accumulate specification coverage of the given traces.

    The disjuncts of every clause are compiled together into one
    bit-parallel word function and scored 64 cycles per call; the
    per-cycle hit counts, sole-justification counts and stall/move
    observations are recovered from the packed result columns with
    population counts.

    Args:
        spec: the functional specification whose clauses define the coverage
            model.
        traces: simulation traces to score (signals are packed from each
            trace exactly as the assertion monitor samples them).  All
            runs to be accumulated go into one call.
    """
    report = _new_report(spec)
    compiled = compile_outputs(
        {
            (clause.moe, index): disjunct
            for clause in spec.clauses
            for index, disjunct in enumerate(_disjuncts_of(clause.condition))
        }
    )
    moe_flags = [clause.moe for clause in spec.clauses]

    for trace in traces:
        report.traces_merged += 1
        num_cycles = trace.num_cycles()
        if not num_cycles:
            continue
        # A disjunct's variables must be sampled by the trace (matching
        # eval_expr, which raises on unbound variables); a moe flag the
        # trace does not drive is observed as moving.
        try:
            columns = trace.pack_signal_columns(list(compiled.names))
        except KeyError as exc:
            raise UnboundVariableError(exc.args[0]) from exc
        moe_columns = trace.pack_signal_columns(
            moe_flags, defaults=dict.fromkeys(moe_flags, True)
        )
        # Packed columns carry no bits beyond the last cycle, so the
        # population counts below need no tail mask.
        hits_of = dict(zip(compiled.outputs, compiled.evaluate_packed(columns, num_cycles)))
        for clause in spec.clauses:
            stage = report.stages[clause.moe]
            stage.cycles_observed += num_cycles
            moving = sum(word.bit_count() for word in moe_columns[clause.moe])
            stage.cycles_moving += moving
            stage.cycles_stalled += num_cycles - moving
            hit_columns = [
                hits_of[(clause.moe, disjunct.index)] for disjunct in stage.disjuncts
            ]
            for disjunct, hits in zip(stage.disjuncts, hit_columns):
                disjunct.hit_cycles += sum(word.bit_count() for word in hits)
            for words in zip(*hit_columns):
                # ``shared``: the cycles two or more disjuncts justify.
                union = shared = 0
                for word in words:
                    shared |= union & word
                    union |= word
                if not union:
                    continue
                stage.cycles_condition_true += union.bit_count()
                for disjunct, word in zip(stage.disjuncts, words):
                    disjunct.sole_justification_cycles += (word & ~shared).bit_count()
    return report
