"""RPL010 true positive: imports nothing in the module uses."""

import os.path
from typing import Dict, List

from repro.symbolic import SymbolicContext as Context


def names(items: List[str]) -> List[str]:
    import json

    return sorted(items)
