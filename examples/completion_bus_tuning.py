"""Completion-bus tuning: quantify the cost of an over-conservative interlock.

The paper's Section 4 reports that formalising the pipeline flow control
exposed inefficiencies at the completion stages and led to a redesign of the
completion logic "resulting in efficiency increase at the pipeline
completion stages".

This example reproduces that engineering workflow on the Figure 1
architecture:

* the *pre-redesign* interlock is a conservative implementation that only
  honours a completion-bus grant for a request registered on the previous
  cycle (a perfectly functional, but needlessly stalling, design);
* the *redesigned* interlock is the maximum-performance interlock derived
  from the functional specification.

Both are simulated on several workload profiles; stalls are classified as
necessary or unnecessary against the functional specification, and the
throughput difference is reported per workload.

Run with ``python examples/completion_bus_tuning.py``.
"""

from repro.analysis import classify_stalls, compare_traces, render_table, stats_table
from repro.archs import example_architecture
from repro.pipeline import ConservativeCompletionInterlock, reference_interlock, simulate
from repro.spec import build_functional_spec
from repro.workloads import (
    BALANCED,
    CONTENTION_HEAVY,
    HAZARD_HEAVY,
    WAIT_HEAVY,
    WorkloadGenerator,
    completion_contention_program,
)

PROFILES = {
    "balanced": BALANCED,
    "hazard-heavy": HAZARD_HEAVY,
    "contention-heavy": CONTENTION_HEAVY,
    "wait-heavy": WAIT_HEAVY,
}


def main() -> None:
    architecture = example_architecture()
    functional = build_functional_spec(architecture)

    rows = []
    for label, profile in PROFILES.items():
        program = WorkloadGenerator(architecture, seed=7).generate(profile)
        conservative = simulate(
            architecture, ConservativeCompletionInterlock(functional, architecture), program
        )
        redesigned = simulate(architecture, reference_interlock(functional), program)

        comparison = compare_traces(conservative, redesigned)
        conservative_stalls = classify_stalls(conservative, functional)
        redesigned_stalls = classify_stalls(redesigned, functional)
        rows.append(
            {
                "workload": label,
                "cycles (pre-redesign)": conservative.num_cycles(),
                "cycles (redesigned)": redesigned.num_cycles(),
                "speedup": f"{comparison.speedup:.3f}",
                "unnecessary stalls (pre)": conservative_stalls.total_unnecessary(),
                "unnecessary stalls (post)": redesigned_stalls.total_unnecessary(),
            }
        )

    print("=== Completion-logic redesign across workloads ===")
    print(render_table(rows))
    print()

    # Zoom in on the workload the redesign was motivated by: back-to-back
    # completion-bus contention between the two pipes.
    program = completion_contention_program(architecture, length=96)
    conservative = simulate(
        architecture, ConservativeCompletionInterlock(functional, architecture), program
    )
    redesigned = simulate(architecture, reference_interlock(functional), program)
    print("=== Contention microbenchmark: per-design throughput ===")
    print(render_table(stats_table([conservative, redesigned])))
    print()

    breakdown = classify_stalls(conservative, functional)
    print("=== Pre-redesign stall classification (per stage) ===")
    print(breakdown.describe())
    print()
    worst = breakdown.worst_stage()
    print(f"Stage with the most unnecessary stalls: {worst}")
    print("Every one of those stalls is a performance bug in the sense of the "
          "paper: the functional specification does not require it.")

    if compare_traces(conservative, redesigned).speedup <= 1.0:
        raise SystemExit("expected the redesigned completion logic to be faster")


if __name__ == "__main__":
    main()
