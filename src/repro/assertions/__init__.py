"""Assertion generation, runtime monitoring and HDL (SVA/PSL) emission."""

from .generate import (
    Assertion,
    AssertionKind,
    assertions_by_kind,
    combined_assertions,
    derived_assertions,
    functional_assertions,
    performance_assertions,
    testbench_assertions,
)
from .monitor import AssertionMonitor, AssertionViolation, MonitorReport, monitor_trace
from .psl import psl_vunit
from .report import VerificationSummary, violations_by_stage
from .sva import sva_bind_directive, sva_module

__all__ = [
    "Assertion",
    "AssertionKind",
    "assertions_by_kind",
    "combined_assertions",
    "derived_assertions",
    "functional_assertions",
    "performance_assertions",
    "testbench_assertions",
    "AssertionMonitor",
    "AssertionViolation",
    "MonitorReport",
    "monitor_trace",
    "psl_vunit",
    "VerificationSummary",
    "violations_by_stage",
    "sva_bind_directive",
    "sva_module",
]
