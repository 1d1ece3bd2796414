"""VHDL emission for the structural netlist IR and for assign-style RTL.

The paper's Section 5 tool goal explicitly mentions generating
"Verilog/VHDL assertions" and ultimately the flow-control HDL itself; this
module is the VHDL twin of :mod:`repro.synth.verilog`, emitting either the
gate-level netlist produced by :func:`repro.synth.synthesize.synthesize_interlock`
or the readable one-concurrent-assignment-per-flag form.
"""

from __future__ import annotations

from typing import List, Optional

from ..expr.printer import to_vhdl
from ..expr.transform import rename
from ..pipeline.signals import to_hdl_identifier
from ..spec.derivation import DerivationResult
from ..spec.functional import FunctionalSpec
from .hdl_ir import Gate, GateKind, Module
from .synthesize import SynthesisResult

__all__ = ["module_to_vhdl", "behavioural_vhdl", "synthesis_to_vhdl"]

_HEADER = [
    "-- Generated by repro.synth.vhdl — do not edit by hand.",
    "library ieee;",
    "use ieee.std_logic_1164.all;",
    "",
]


def _entity(name: str, inputs: List[str], outputs: List[str],
            comments: Optional[dict] = None) -> List[str]:
    """Entity declaration with one std_logic port per signal."""
    comments = comments or {}
    lines = [f"entity {name} is", "  port ("]
    declarations: List[str] = []
    for port in inputs:
        comment = f"  -- {comments[port]}" if port in comments else ""
        declarations.append(f"    {port} : in  std_logic;{comment}")
    for port in outputs:
        comment = f"  -- {comments[port]}" if port in comments else ""
        declarations.append(f"    {port} : out std_logic;{comment}")
    if declarations:
        # The final port must not carry a trailing semicolon before the
        # closing parenthesis; keep any comment attached to the line.
        last = declarations[-1]
        head, _, tail = last.partition(";")
        declarations[-1] = head + tail
    lines.extend(declarations)
    lines.append("  );")
    lines.append(f"end entity {name};")
    lines.append("")
    return lines


def _gate_to_vhdl(gate: Gate) -> str:
    if gate.kind is GateKind.CONST0:
        return f"  {gate.output} <= '0';"
    if gate.kind is GateKind.CONST1:
        return f"  {gate.output} <= '1';"
    if gate.kind is GateKind.BUF:
        return f"  {gate.output} <= {gate.inputs[0]};"
    if gate.kind is GateKind.NOT:
        return f"  {gate.output} <= not {gate.inputs[0]};"
    operator = " and " if gate.kind is GateKind.AND else " or "
    return f"  {gate.output} <= {operator.join(gate.inputs)};"


def module_to_vhdl(module: Module) -> str:
    """Render a structural netlist module as gate-level VHDL."""
    lines: List[str] = list(_HEADER)
    if module.comment:
        lines.insert(0, f"-- {module.comment}")
    input_names = [port.name for port in module.inputs()]
    output_names = [port.name for port in module.outputs()]
    comments = {port.name: port.comment for port in module.ports if port.comment}
    lines.extend(_entity(module.name, input_names, output_names, comments))

    lines.append(f"architecture netlist of {module.name} is")
    for wire in module.wires:
        lines.append(f"  signal {wire} : std_logic;")
    lines.append("begin")
    for gate in module.gates:
        lines.append(_gate_to_vhdl(gate))
    lines.append(f"end architecture netlist;")
    return "\n".join(lines)


def behavioural_vhdl(
    spec: FunctionalSpec,
    derivation: DerivationResult,
    entity_name: Optional[str] = None,
) -> str:
    """Render the derived interlock as one concurrent assignment per moe flag."""
    entity_name = entity_name or to_hdl_identifier(f"{spec.name}_interlock")
    name_map = {
        signal: to_hdl_identifier(signal)
        for signal in spec.input_signals() + spec.moe_flags()
    }
    lines: List[str] = [
        "-- Maximum-performance interlock derived from the functional specification",
        f"-- of {spec.name!r} by fixed-point iteration (DAC 2002 method).",
    ]
    lines.extend(_HEADER)
    inputs = [name_map[s] for s in spec.input_signals()]
    outputs = [name_map[m] for m in spec.moe_flags()]
    comments = {identifier: signal for signal, identifier in name_map.items()}
    lines.extend(_entity(entity_name, inputs, outputs, comments))

    lines.append(f"architecture rtl of {entity_name} is")
    lines.append("begin")
    for moe in spec.moe_flags():
        expression = derivation.moe_expressions[moe]
        relevant = {name: name_map[name] for name in expression.variables()}
        rendered = to_vhdl(rename(expression, relevant))
        lines.append(f"  -- {moe} = not F_{moe}(inputs)")
        lines.append(f"  {name_map[moe]} <= {rendered};")
    lines.append(f"end architecture rtl;")
    return "\n".join(lines)


def synthesis_to_vhdl(result: SynthesisResult) -> str:
    """Render a :class:`~repro.synth.synthesize.SynthesisResult` as gate-level VHDL.

    The behavioural form of the same interlock is :func:`behavioural_vhdl`.
    """
    return module_to_vhdl(result.module)
