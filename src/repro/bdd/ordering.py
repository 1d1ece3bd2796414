"""The static variable order of every verification BDD context.

A good order keeps related signals adjacent.  For pipeline interlock
formulas the signals that must sit together are each register's
selector, scoreboard and bypass indicators:
:func:`register_interleaved_order` groups them by register index.
:func:`repro.spec.derivation.derivation_order` builds every job's order
on it, and the equivalence checks order their shared contexts with it.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

_REGISTER_INDEX_RE = re.compile(r"(?:\[(\d+)\]|=(\d+))$")


def register_index_of(name: str) -> Optional[int]:
    """The trailing register index of an indexed signal name, or None.

    Recognises the two indexed conventions of :mod:`repro.pipeline.signals`:
    scoreboard bits ``scb[5]`` and lowered one-hot indicators such as
    ``c.regaddr=5`` or ``long.1.src.regaddr=5``.
    """
    match = _REGISTER_INDEX_RE.search(name)
    if match is None:
        return None
    return int(match.group(1) or match.group(2))


def register_interleaved_order(names: Sequence[str]) -> List[str]:
    """Group register-indexed signals by their index; keep the rest in place.

    The scoreboard stall term is a disjunction of per-register cubes
    (``sel=a ∧ scb[a] ∧ ¬bus.regaddr=a``): with all selectors ordered before
    all scoreboard bits the BDD must remember every selector seen so far —
    the classic interleaving blow-up, exponential in the register count
    (1.7M nodes per issue condition at 16 registers).  Placing each
    register's selector, scoreboard and bypass indicators adjacently makes
    the same conditions linear (a few thousand nodes for the whole
    FirePath-scale specification).

    Non-indexed signals keep their relative order and precede the indexed
    groups, which are emitted in ascending register index.
    """
    plain: List[str] = []
    grouped: dict = {}
    for name in names:
        index = register_index_of(name)
        if index is None:
            plain.append(name)
        else:
            grouped.setdefault(index, []).append(name)
    order = plain
    for index in sorted(grouped):
        order.extend(grouped[index])
    return order
