"""PSL (Property Specification Language) assertion text generation.

PSL was the assertion language in common industrial use at the time of the
paper (2002); the vunit produced here can be bound to a VHDL or Verilog
implementation of the pipeline control logic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..expr.printer import to_verilog
from ..expr.transform import rename
from ..pipeline.signals import to_hdl_identifier
from .generate import Assertion


def _port_map(assertions: List[Assertion]) -> Dict[str, str]:
    names = set()
    for assertion in assertions:
        names |= assertion.formula.variables()
    return {name: to_hdl_identifier(name) for name in sorted(names)}


def psl_vunit(
    assertions: Iterable[Assertion],
    unit_name: str = "pipeline_spec",
    bound_entity: str = "pipeline_control",
    clock: str = "clk",
) -> str:
    """Render a PSL verification unit containing one property per clause."""
    assertion_list = list(assertions)
    if not assertion_list:
        raise ValueError("cannot generate a PSL vunit without assertions")
    port_map = _port_map(assertion_list)

    lines: List[str] = []
    lines.append("-- Generated by repro.assertions.psl — do not edit by hand.")
    lines.append(f"vunit {unit_name} ({bound_entity}) {{")
    lines.append(f"  default clock is rose({clock});")
    lines.append("")
    for assertion in assertion_list:
        expression = to_verilog(rename(assertion.formula, port_map))
        lines.append(f"  -- {assertion.description}")
        lines.append(f"  property p_{assertion.name} = always ({expression});")
        lines.append(f"  assert p_{assertion.name};")
        lines.append("")
    lines.append("}")
    return "\n".join(lines)
