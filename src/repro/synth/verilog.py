"""Verilog emission for the structural netlist IR and for assign-style RTL."""

from __future__ import annotations

from typing import List, Optional

from ..expr.printer import to_verilog
from ..expr.transform import rename
from ..spec.derivation import DerivationResult
from ..spec.functional import FunctionalSpec
from ..pipeline.signals import to_hdl_identifier
from .hdl_ir import Gate, GateKind, Module
from .synthesize import SynthesisResult


def module_to_verilog(module: Module) -> str:
    """Render a structural netlist module as gate-level Verilog."""
    lines: List[str] = []
    if module.comment:
        lines.append(f"// {module.comment}")
    lines.append("// Generated by repro.synth.verilog — do not edit by hand.")
    port_names = ", ".join(port.name for port in module.ports)
    lines.append(f"module {module.name} ({port_names});")
    for port in module.ports:
        comment = f"  // {port.comment}" if port.comment else ""
        lines.append(f"  {port.direction.value} wire {port.name};{comment}")
    if module.wires:
        lines.append("")
        for wire in module.wires:
            lines.append(f"  wire {wire};")
    lines.append("")
    for index, gate in enumerate(module.gates):
        lines.append(_gate_to_verilog(gate, index))
    lines.append("endmodule")
    return "\n".join(lines)


def _gate_to_verilog(gate: Gate, index: int) -> str:
    if gate.kind is GateKind.CONST0:
        return f"  assign {gate.output} = 1'b0;"
    if gate.kind is GateKind.CONST1:
        return f"  assign {gate.output} = 1'b1;"
    if gate.kind is GateKind.BUF:
        return f"  assign {gate.output} = {gate.inputs[0]};"
    if gate.kind is GateKind.NOT:
        return f"  assign {gate.output} = ~{gate.inputs[0]};"
    operator = " & " if gate.kind is GateKind.AND else " | "
    return f"  assign {gate.output} = {operator.join(gate.inputs)};"


def behavioural_verilog(
    spec: FunctionalSpec,
    derivation: DerivationResult,
    module_name: Optional[str] = None,
) -> str:
    """Render the derived interlock as readable assign-per-flag RTL.

    This is the form a designer would review: one continuous assignment per
    moe flag, with the original specification signal names preserved in
    comments.
    """
    module_name = module_name or to_hdl_identifier(f"{spec.name}_interlock")
    name_map = {
        signal: to_hdl_identifier(signal)
        for signal in spec.input_signals() + spec.moe_flags()
    }
    lines: List[str] = []
    lines.append("// Maximum-performance interlock derived from the functional specification")
    lines.append(f"// of {spec.name!r} by fixed-point iteration (DAC 2002 method).")
    lines.append("// Generated by repro.synth.verilog — do not edit by hand.")
    ports = [name_map[s] for s in spec.input_signals()] + [
        name_map[m] for m in spec.moe_flags()
    ]
    lines.append(f"module {module_name} ({', '.join(ports)});")
    for signal in spec.input_signals():
        lines.append(f"  input  wire {name_map[signal]};  // {signal}")
    for moe in spec.moe_flags():
        lines.append(f"  output wire {name_map[moe]};  // {moe}")
    lines.append("")
    for moe in spec.moe_flags():
        expression = derivation.moe_expressions[moe]
        relevant = {name: name_map[name] for name in expression.variables()}
        rendered = to_verilog(rename(expression, relevant))
        lines.append(f"  // {moe} = !F_{moe}(inputs)")
        lines.append(f"  assign {name_map[moe]} = {rendered};")
    lines.append("endmodule")
    return "\n".join(lines)


def synthesis_to_verilog(result: SynthesisResult) -> str:
    """Render a :class:`~repro.synth.synthesize.SynthesisResult` as gate-level Verilog.

    The behavioural form of the same interlock is
    :func:`behavioural_verilog`.
    """
    return module_to_verilog(result.module)
