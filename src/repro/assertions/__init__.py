"""Assertion generation, runtime monitoring and HDL (SVA/PSL) emission."""

from .generate import (
    Assertion,
    AssertionKind,
    functional_assertions,
    performance_assertions,
    testbench_assertions,
)
from .monitor import AssertionMonitor, AssertionViolation, MonitorReport, monitor_trace
from .psl import psl_vunit
from .sva import sva_bind_directive, sva_module

__all__ = [
    "Assertion",
    "AssertionKind",
    "functional_assertions",
    "performance_assertions",
    "testbench_assertions",
    "AssertionMonitor",
    "AssertionViolation",
    "MonitorReport",
    "monitor_trace",
    "psl_vunit",
    "sva_bind_directive",
    "sva_module",
]
