"""RPL010 clean: every import is read, exported or annotated with."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Dict, List

from repro.expr import Var
from repro.symbolic import SymbolicContext as Context

if TYPE_CHECKING:
    from repro.spec import FunctionalSpec

__all__ = ["Var", "flags"]


def flags(spec: "FunctionalSpec", context: Context) -> Dict[str, List[str]]:
    return {os.path.basename(spec.name): spec.moe_flags()}
