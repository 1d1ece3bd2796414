"""A plain-text interchange format for functional specifications.

The paper's Section 5 describes the tool the authors were building: "given
a functional specification … generates the corresponding performance
specification and also Verilog/VHDL assertions".  That tool needs a way for
designers to *write down* the functional specification; this module defines
a small line-oriented format for it and implements the loader and the
serialiser (the command-line front end in :mod:`repro.cli` builds on it).

Format
------

::

    # Comments start with '#'; blank lines are ignored.
    spec dac2002-example

    inputs:
        long.1.rtm long.2.rtm long.3.rtm
        op_is_WAIT scb[0] scb[1]

    stage long.4.moe "long completion":
        stall when long.req & !long.gnt

    stage long.1.moe:
        stall when long.1.rtm & !long.2.moe
        stall when op_is_WAIT
        stall when !short.1.moe

* one ``spec <name>`` line (first non-comment line);
* one ``inputs:`` block listing every primary input signal, whitespace
  separated, over as many indented lines as needed;
* one ``stage <moe-flag> ["label"]:`` block per pipeline stage, each
  containing one or more ``stall when <condition>`` lines whose conditions
  are parsed with :func:`repro.expr.parser.parse_expr` and disjoined.

The serialiser writes exactly this shape, one disjunct per ``stall when``
line, so specifications round-trip.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..expr.ast import Expr, FALSE, Or
from ..expr.builders import big_or
from ..expr.parser import ParseError, parse_expr
from ..expr.printer import to_text
from .functional import FunctionalSpec, SpecificationError, StallClause

__all__ = ["SpecFormatError", "loads_spec", "dumps_spec", "load_spec_file"]


class SpecFormatError(ValueError):
    """Raised when a specification file is malformed."""


_STAGE_RE = re.compile(
    r"^stage\s+(?P<moe>[A-Za-z_][A-Za-z0-9_.\[\]=]*)\s*(?:\"(?P<label>[^\"]*)\")?\s*:\s*$"
)


def _strip(line: str) -> str:
    """Remove comments and surrounding whitespace."""
    hash_index = line.find("#")
    if hash_index != -1:
        line = line[:hash_index]
    return line.strip()


def loads_spec(text: str) -> FunctionalSpec:
    """Parse a functional specification from its textual form."""
    name: Optional[str] = None
    inputs: List[str] = []
    clauses: List[Tuple[str, str, List[Expr]]] = []  # (moe, label, disjuncts)
    mode: Optional[str] = None  # None | "inputs" | "stage"

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip(raw_line)
        if not line:
            continue

        if line.startswith("spec "):
            if name is not None:
                raise SpecFormatError(f"line {line_number}: duplicate 'spec' line")
            name = line[len("spec "):].strip()
            if not name:
                raise SpecFormatError(f"line {line_number}: empty specification name")
            mode = None
            continue

        if line == "inputs:":
            mode = "inputs"
            continue

        stage_match = _STAGE_RE.match(line)
        if stage_match:
            moe = stage_match.group("moe")
            label = stage_match.group("label") or ""
            clauses.append((moe, label, []))
            mode = "stage"
            continue

        if line.startswith("stall when "):
            if mode != "stage" or not clauses:
                raise SpecFormatError(
                    f"line {line_number}: 'stall when' outside a stage block"
                )
            condition_text = line[len("stall when "):].strip()
            try:
                condition = parse_expr(condition_text)
            except ParseError as exc:
                raise SpecFormatError(f"line {line_number}: {exc}") from exc
            clauses[-1][2].append(condition)
            continue

        if mode == "inputs":
            inputs.extend(line.split())
            continue

        raise SpecFormatError(f"line {line_number}: cannot interpret {raw_line.strip()!r}")

    if name is None:
        raise SpecFormatError("missing 'spec <name>' line")
    if not clauses:
        raise SpecFormatError("specification declares no stages")

    stall_clauses: List[StallClause] = []
    for moe, label, disjuncts in clauses:
        condition: Expr = big_or(disjuncts) if disjuncts else FALSE
        stall_clauses.append(StallClause(moe=moe, condition=condition, label=label))

    try:
        return FunctionalSpec(name=name, clauses=stall_clauses, inputs=inputs)
    except SpecificationError as exc:
        raise SpecFormatError(str(exc)) from exc


def dumps_spec(spec: FunctionalSpec) -> str:
    """Serialise a functional specification to its textual form."""
    lines: List[str] = [
        "# Functional specification of interlocked pipeline control logic.",
        "# One 'stall when' line per disjunct of each stage's stall condition.",
        f"spec {spec.name}",
        "",
        "inputs:",
    ]
    inputs = list(spec.inputs)
    for start in range(0, len(inputs), 6):
        lines.append("    " + " ".join(inputs[start:start + 6]))
    if not inputs:
        lines.append("    # (none)")
    for clause in spec.clauses:
        lines.append("")
        label = f' "{clause.label}"' if clause.label else ""
        lines.append(f"stage {clause.moe}{label}:")
        condition = clause.condition
        disjuncts = list(condition.operands) if isinstance(condition, Or) else [condition]
        if disjuncts == [FALSE]:
            lines.append("    # never stalls")
            continue
        for disjunct in disjuncts:
            lines.append(f"    stall when {to_text(disjunct)}")
    lines.append("")
    return "\n".join(lines)


def load_spec_file(path: str) -> FunctionalSpec:
    """Load a functional specification from a text file."""
    with open(path, "r", encoding="utf-8") as stream:
        return loads_spec(stream.read())
