"""Synthetic instruction-stream generators used by examples, tests and benches."""

from .generators import (
    BALANCED,
    CONTENTION_HEAVY,
    HAZARD_HEAVY,
    WAIT_HEAVY,
    WorkloadGenerator,
    WorkloadProfile,
    completion_contention_program,
    independent_stream,
)

__all__ = [
    "BALANCED",
    "CONTENTION_HEAVY",
    "HAZARD_HEAVY",
    "WAIT_HEAVY",
    "WorkloadGenerator",
    "WorkloadProfile",
    "completion_contention_program",
    "independent_stream",
]
