"""Formal property checking, combinational and bounded."""

from .bmc import (
    BmcResult,
    BmcViolation,
    BoundedModelChecker,
    CombinationalModel,
    RegisteredGrantModel,
    StuckResetModel,
    timed_name,
)
from .environment import environment_assumptions, environment_formula
from .property_check import (
    CheckReport,
    PropertyChecker,
)

__all__ = [
    "BmcResult",
    "BmcViolation",
    "BoundedModelChecker",
    "CombinationalModel",
    "RegisteredGrantModel",
    "StuckResetModel",
    "timed_name",
    "environment_assumptions",
    "environment_formula",
    "CheckReport",
    "PropertyChecker",
]
