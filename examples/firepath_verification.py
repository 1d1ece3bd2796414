"""FirePath-scale verification campaign.

The original project applied the method to Broadcom's FirePath processor: a
two-sided LIW machine with deep execution pipes, shunt (decoupling) stages,
several completion buses, interrupts and WAIT states.  FirePath itself is
proprietary, so this example applies exactly the same flow to the bundled
FirePath-like architecture model:

1. build the functional specification of the whole machine automatically,
2. check the Section 3.1 preconditions,
3. derive the maximum-performance interlock,
4. exhaustively property-check it against the combined specification,
5. run a fault-injection campaign that plants the classes of defect the
   paper reports finding (unnecessary-stall inefficiencies and incorrect
   initialisation values) and show the derived assertions detect them.

Run with ``python examples/firepath_verification.py``.
"""

from repro.analysis import render_table
from repro.archs import firepath_like_architecture
from repro.checking import PropertyChecker
from repro.faults import FaultCampaign
from repro.pipeline import ClosedFormInterlock
from repro.spec import build_functional_spec, check_all_properties, symbolic_most_liberal
from repro.workloads import WorkloadProfile


def main(
    num_registers: int = 4,
    num_programs: int = 2,
    program_length: int = 32,
    max_cycles: int = 600,
) -> None:
    # A deliberately smaller FirePath-like configuration keeps this example
    # quick; scale the stage counts and register count up for a stress run
    # (the keyword arguments shrink it further for smoke-test runs).
    architecture = firepath_like_architecture(
        deep_pipe_stages=5,
        short_pipe_stages=3,
        loadstore_stages=3,
        num_registers=num_registers,
    )
    print(architecture.describe())
    print()

    functional = build_functional_spec(architecture)
    print(f"Functional specification: {len(functional.moe_flags())} pipeline stages, "
          f"{len(functional.input_signals())} input signals")

    report = check_all_properties(functional)
    print(report.describe())
    if not report.all_hold():
        raise SystemExit("the FirePath-like spec violates a Section 3.1 precondition")
    print()

    derivation = symbolic_most_liberal(functional)
    interlock = ClosedFormInterlock.from_derivation(derivation)
    print(f"Fixed-point derivation converged in {derivation.iterations} iteration(s).")
    print()

    # Exhaustive property checking of the derived interlock, under the
    # architecture's environment assumptions (arbitration is work-conserving,
    # at most one bus target per bus, one-hot issue register addresses, ...).
    checker = PropertyChecker(functional, architecture, backend="bdd")
    combined_report = checker.check_combined(interlock)
    print("=== Exhaustive property check of the derived interlock ===")
    print(combined_report.describe())
    if not combined_report.all_hold():
        raise SystemExit("derived interlock failed property checking (unexpected)")
    print()

    # The Section 4 result: plant representative control defects and verify
    # the generated testbench assertions find and classify all of them.
    campaign = FaultCampaign(
        architecture,
        functional,
        profile=WorkloadProfile(length=program_length),
        num_programs=num_programs,
        max_cycles=max_cycles,
    )
    summary = campaign.run_standard_set(reset_cycles=4)
    print("=== Fault-injection campaign (per fault class) ===")
    print(render_table(summary.summary_rows()))
    print()
    print("=== Fault-injection campaign (per fault) ===")
    print(render_table(summary.rows()))
    print()

    sim_detected = summary.detected_by_simulation()
    total = summary.total()
    effective = summary.effective_total()
    vacuous = summary.vacuous()
    print(f"Of {total} injected mutations, {vacuous} were provably vacuous (they do not "
          f"change the interlock — e.g. dropping a stall term of a stage whose successor "
          f"never stalls on the load/store pipes).")
    print(f"Simulation assertions flagged {sim_detected} faults; together with exhaustive "
          f"property checking {summary.detected_by_any()}/{effective} effective faults "
          f"were caught.")
    misses = [record for record in summary.simulation_misses() if not record.vacuous]
    if misses:
        print("Effective faults only the property checker caught "
              "(simulation is not exhaustive):")
        for record in misses:
            print(f"  - {record.fault.describe()}")
    if summary.detected_by_any() != effective:
        raise SystemExit("some effective injected faults escaped both verification routes")


if __name__ == "__main__":
    main()
