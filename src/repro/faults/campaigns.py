"""Fault-detection campaigns: do the derived assertions catch injected bugs?

This is the reproduction of the paper's Section 4 result in quantitative
form.  For every injected fault the campaign runs

* **simulation with assertions** — the testbench route the FirePath project
  used: random programs, the functional and performance assertions armed,
  plus the simulator's independent physical hazard detection; and
* **property checking** — the exhaustive route the paper recommends, for
  faults that yield a combinational interlock.

and records which route detected the fault and how the detection classifies
it (performance vs functional), compared against the injected ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..assertions.generate import AssertionKind, testbench_assertions
from ..assertions.monitor import AssertionMonitor
from ..checking.property_check import PropertyChecker
from ..obs import span
from ..pipeline.instructions import Program
from ..pipeline.interlock import ClosedFormInterlock
from ..pipeline.simulator import PipelineSimulator, SimulatorConfig
from ..pipeline.structure import Architecture
from ..spec.derivation import DerivationResult
from ..spec.functional import FunctionalSpec
from ..workloads.generators import WorkloadGenerator, WorkloadProfile
from .injection import FaultClass, FaultInjector, InjectedFault


@dataclass
class DetectionRecord:
    """Detection outcome for one injected fault."""

    fault: InjectedFault
    performance_violations: int = 0
    functional_violations: int = 0
    physical_hazards: int = 0
    simulation_cycles: int = 0
    property_check_functional_failed: Optional[bool] = None
    property_check_equivalence_failed: Optional[bool] = None

    @property
    def detected_by_simulation(self) -> bool:
        """Did any assertion fire during simulation?"""
        return bool(self.performance_violations or self.functional_violations)

    @property
    def detected_by_property_check(self) -> Optional[bool]:
        """Is the mutant refuted as the maximum-performance interlock (None if n/a)?

        By the Section 3.2 theorem the derived most liberal moe assignment
        is the one implementation meeting both the functional and the
        performance specification, so the equivalence check against it
        refutes every mutant that either specification refutes.  It also
        catches extra stalls at lock-stepped stages, which the per-clause
        performance implication misses: there an unnecessary stall of one
        stage is "justified" by the induced stall of its partner.
        """
        return self.property_check_equivalence_failed

    @property
    def detected_by_any(self) -> bool:
        """Detected by simulation assertions or by the property checker."""
        return self.detected_by_simulation or bool(self.detected_by_property_check)

    @property
    def vacuous(self) -> Optional[bool]:
        """True when the mutation did not actually change the interlock.

        Dropping a stall term that can never fire (for example the
        downstream-stall term of a stage whose successor never stalls, as on
        a load/store pipe without a completion bus) produces an interlock
        that is provably equivalent to the derived reference; there is
        nothing to detect.  None when property checking was not applicable
        (sequential faults are never considered vacuous).
        """
        if self.detected_by_property_check is None:
            return None
        return not self.detected_by_property_check

    @property
    def simulation_classification(self) -> Optional[FaultClass]:
        """How the assertions classify the fault (None if nothing fired)."""
        if self.functional_violations:
            return FaultClass.FUNCTIONAL
        if self.performance_violations:
            return FaultClass.PERFORMANCE
        return None

    @property
    def property_classification(self) -> Optional[FaultClass]:
        """How the property checker classifies the fault (None if undetected or n/a).

        A failed functional claim means a required stall can be missed — a
        functional bug.  If every functional claim holds but the
        implementation is not the most liberal solution (the equivalence
        check fails), the maximality theorem of Section 3 guarantees it
        stalls strictly more than necessary — a performance bug.
        """
        if not self.detected_by_property_check:
            return None
        if self.property_check_functional_failed:
            return FaultClass.FUNCTIONAL
        return FaultClass.PERFORMANCE

    @property
    def classified_correctly(self) -> bool:
        """Does the assertion-based classification match the injected class?

        Initialisation faults count as correctly classified when they are
        detected at all (the paper reports them separately from the two
        steady-state classes).
        """
        observed = self.simulation_classification
        if observed is None:
            return False
        if self.fault.fault_class is FaultClass.INITIALISATION:
            return True
        return observed is self.fault.fault_class

    @property
    def property_classified_correctly(self) -> Optional[bool]:
        """Does the property-check classification match the injected class?

        None when property checking was not applicable to this fault.
        """
        if self.detected_by_property_check is None:
            return None
        observed = self.property_classification
        if observed is None:
            return False
        return observed is self.fault.fault_class

    def as_row(self) -> Dict[str, object]:
        """Row for the benchmark tables."""
        return {
            "fault": self.fault.describe(),
            "class": self.fault.fault_class.value,
            "perf viol": self.performance_violations,
            "func viol": self.functional_violations,
            "hazards": self.physical_hazards,
            "sim detect": "yes" if self.detected_by_simulation else "no",
            "prop detect": (
                "n/a"
                if self.detected_by_property_check is None
                else ("yes" if self.detected_by_property_check else "no")
            ),
            "prop class": (
                "n/a"
                if self.detected_by_property_check is None
                else (
                    self.property_classification.value
                    if self.property_classification is not None
                    else "-"
                )
            ),
            "vacuous": "yes" if self.vacuous else "no",
        }


@dataclass
class CampaignSummary:
    """Aggregate detection statistics over a fault set."""

    records: List[DetectionRecord] = field(default_factory=list)

    def _select(
        self,
        fault_class: Optional[FaultClass],
        test: Callable[[DetectionRecord], object],
    ) -> List[DetectionRecord]:
        """The records of one fault class (all for None) that pass ``test``."""
        return [
            record
            for record in self.records
            if (fault_class is None or record.fault.fault_class is fault_class)
            and test(record)
        ]

    def total(self, fault_class: Optional[FaultClass] = None) -> int:
        """Number of injected faults (of one class)."""
        return len(self._select(fault_class, lambda record: True))

    def detected_by_simulation(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults detected by at least one assertion during simulation."""
        return len(self._select(fault_class, lambda record: record.detected_by_simulation))

    def detected_by_property_check(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults refuted by the property checker (where applicable)."""
        return len(
            self._select(fault_class, lambda record: record.detected_by_property_check)
        )

    def property_check_applicable(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults for which property checking was applicable."""
        return len(
            self._select(
                fault_class, lambda record: record.detected_by_property_check is not None
            )
        )

    def detected_by_any(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults detected by at least one of the two verification routes."""
        return len(self._select(fault_class, lambda record: record.detected_by_any))

    def vacuous(self, fault_class: Optional[FaultClass] = None) -> int:
        """Injected mutations that provably did not change the interlock."""
        return len(self._select(fault_class, lambda record: record.vacuous))

    def effective_total(self, fault_class: Optional[FaultClass] = None) -> int:
        """Injected faults that actually changed behaviour (non-vacuous)."""
        return self.total(fault_class) - self.vacuous(fault_class)

    def correctly_classified(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults whose assertion-based classification matches the ground truth."""
        return len(self._select(fault_class, lambda record: record.classified_correctly))

    def property_correctly_classified(self, fault_class: Optional[FaultClass] = None) -> int:
        """Faults whose property-check classification matches the ground truth."""
        return len(
            self._select(fault_class, lambda record: record.property_classified_correctly)
        )

    def simulation_misses(self, fault_class: Optional[FaultClass] = None) -> List[DetectionRecord]:
        """Faults the simulation testbench did not flag (the exhaustiveness gap)."""
        return self._select(fault_class, lambda record: not record.detected_by_simulation)

    def rows(self) -> List[Dict[str, object]]:
        """Per-fault table rows."""
        return [record.as_row() for record in self.records]

    def summary_rows(self) -> List[Dict[str, object]]:
        """Per-class summary table rows (the headline numbers)."""
        rows = []
        for fault_class in FaultClass:
            total = self.total(fault_class)
            if total == 0:
                continue
            applicable = self.property_check_applicable(fault_class)
            rows.append(
                {
                    "fault class": fault_class.value,
                    "injected": total,
                    "detected (any)": self.detected_by_any(fault_class),
                    "sim detected": self.detected_by_simulation(fault_class),
                    "prop detected": (
                        f"{self.detected_by_property_check(fault_class)}/{applicable}"
                        if applicable
                        else "n/a"
                    ),
                    "sim classified ok": self.correctly_classified(fault_class),
                    "prop classified ok": (
                        f"{self.property_correctly_classified(fault_class)}/{applicable}"
                        if applicable
                        else "n/a"
                    ),
                }
            )
        return rows


class FaultCampaign:
    """Runs detection experiments over a set of injected faults."""

    def __init__(
        self,
        architecture: Architecture,
        spec: FunctionalSpec,
        profile: Optional[WorkloadProfile] = None,
        num_programs: int = 3,
        seed: int = 0,
        max_cycles: int = 600,
        derivation: Optional[DerivationResult] = None,
        property_checker: Optional[PropertyChecker] = None,
    ):
        self.architecture = architecture
        self.spec = spec
        self.profile = profile or WorkloadProfile(length=60)
        self.num_programs = num_programs
        self.seed = seed
        self.max_cycles = max_cycles
        self.assertions = testbench_assertions(spec)
        # One monitor for every fault in the campaign; its bit-parallel
        # evaluator is compiled once per process for each distinct
        # assertion set, so a later campaign on this spec reuses it.
        self.monitor = AssertionMonitor(self.assertions)
        self.derivation = derivation
        self._programs: Optional[List[Program]] = None
        # Work counters over every run_fault call: cycles simulated, and
        # the part of them the simulator stepped (the rest repeated a
        # settled cycle).
        self.simulated_cycles = 0
        self.stepped_cycles = 0
        # A job passes the checker its obligations stage decided with, so
        # the environment is built once per derivation.
        self.property_checker = property_checker or PropertyChecker(
            spec, architecture=architecture, derivation=derivation
        )

    def programs(self) -> List[Program]:
        """The campaign's ``num_programs`` workloads, generated on first use.

        They do not depend on the fault, and a simulator run does not
        depend on earlier runs of the same program, so every fault is
        simulated on the same program objects.
        """
        if self._programs is None:
            self._programs = [
                WorkloadGenerator(self.architecture, seed=self.seed + index).generate(
                    self.profile
                )
                for index in range(self.num_programs)
            ]
        return self._programs

    def run_fault(self, fault: InjectedFault) -> DetectionRecord:
        """Evaluate one injected fault with both verification routes.

        Traced runs record a ``fault`` span with ``fault.simulate`` and
        ``fault.check`` children; with tracing off they cost nothing.
        """
        record = DetectionRecord(fault=fault)
        monitor = self.monitor
        config = SimulatorConfig(max_cycles=self.max_cycles)
        with span(
            "fault", fault_class=fault.fault_class.value, target=fault.target_moe
        ) as fault_span:
            with span("fault.simulate", programs=self.num_programs) as simulate_span:
                simulator = PipelineSimulator(self.architecture, fault.interlock, config)
                stepped = 0
                for program in self.programs():
                    trace = simulator.run(program)
                    report = monitor.check_trace(trace)
                    record.simulation_cycles += trace.num_cycles()
                    stepped += trace.stepped_cycles
                    record.physical_hazards += trace.hazard_count()
                    record.performance_violations += report.violation_count(
                        AssertionKind.PERFORMANCE
                    )
                    record.functional_violations += report.violation_count(
                        AssertionKind.FUNCTIONAL
                    )
                simulate_span.annotate(
                    cycles=record.simulation_cycles,
                    stepped=stepped,
                    hazards=record.physical_hazards,
                )
                self.simulated_cycles += record.simulation_cycles
                self.stepped_cycles += stepped

            if isinstance(fault.interlock, ClosedFormInterlock):
                with span("fault.check") as check_span:
                    checker = self.property_checker
                    functional = checker.check_functional(fault.interlock)
                    equivalence = checker.check_equivalence_with_derived(fault.interlock)
                    record.property_check_functional_failed = not functional.all_hold()
                    record.property_check_equivalence_failed = not equivalence.all_hold()
                    check_span.annotate(
                        functional_failed=record.property_check_functional_failed,
                        equivalence_failed=record.property_check_equivalence_failed,
                    )
            fault_span.annotate(
                cycles=record.simulation_cycles,
                hazards=record.physical_hazards,
                detected=record.detected_by_any,
            )
        return record

    def run(self, faults: Sequence[InjectedFault]) -> CampaignSummary:
        """Evaluate a whole fault set."""
        summary = CampaignSummary()
        for fault in faults:
            summary.records.append(self.run_fault(fault))
        return summary

    def run_standard_set(self, reset_cycles: int = 4) -> CampaignSummary:
        """Inject the standard per-stage fault set and evaluate it."""
        injector = FaultInjector(self.spec, seed=self.seed, derivation=self.derivation)
        return self.run(injector.standard_fault_set(reset_cycles=reset_cycles))
