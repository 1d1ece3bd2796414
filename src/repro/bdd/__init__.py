"""Reduced ordered BDD package used by the specification and checking layers."""

from .expr_to_bdd import compile_expr
from .manager import FALSE_NODE, TRUE_NODE, BddManager, BddStats, CoverBudgetExceeded
from .ordering import register_index_of, register_interleaved_order
from .serialize import (
    ArtifactError,
    dump_nodes,
    inspect_artifact,
)

__all__ = [
    "ArtifactError",
    "BddManager",
    "BddStats",
    "CoverBudgetExceeded",
    "FALSE_NODE",
    "TRUE_NODE",
    "dump_nodes",
    "inspect_artifact",
    "compile_expr",
    "register_index_of",
    "register_interleaved_order",
]
