"""Bundled example architectures: the paper's example, a FirePath-like model, a RISC pipe."""

from .example_dac2002 import (
    example_architecture,
    paper_combined_formula,
    paper_functional_formula,
    paper_performance_formula,
    paper_stall_conditions,
)
from .family import (
    FamilyConfig,
    FamilyError,
    SCOREBOARD_STYLES,
    SHOWCASE_CONFIGS,
    generate_family,
    is_family_name,
)
from .firepath_like import firepath_like_architecture
from .library import (
    available_architectures,
    load_architecture,
    register_architecture,
    unregister_architecture,
)
from .risc5 import risc5_architecture

__all__ = [
    "example_architecture",
    "paper_combined_formula",
    "paper_functional_formula",
    "paper_performance_formula",
    "paper_stall_conditions",
    "FamilyConfig",
    "FamilyError",
    "SCOREBOARD_STYLES",
    "SHOWCASE_CONFIGS",
    "generate_family",
    "is_family_name",
    "firepath_like_architecture",
    "available_architectures",
    "load_architecture",
    "register_architecture",
    "unregister_architecture",
    "risc5_architecture",
]
