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
from .environment import (
    bus_target_assumptions,
    environment_assumptions,
    environment_formula,
    grant_assumptions,
    issue_register_assumptions,
    request_assumptions,
)
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
    "bus_target_assumptions",
    "environment_assumptions",
    "environment_formula",
    "grant_assumptions",
    "issue_register_assumptions",
    "request_assumptions",
    "CheckReport",
    "PropertyChecker",
]
