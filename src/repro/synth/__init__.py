"""Synthesis of interlock RTL from functional specifications (the paper's Section 5 goal)."""

from .hdl_ir import Gate, GateKind, Module, Port, PortDirection
from .synthesize import NetlistInterlock, SynthesisResult, synthesize_interlock
from .verilog import behavioural_verilog, module_to_verilog, synthesis_to_verilog
from .vhdl import behavioural_vhdl, module_to_vhdl, synthesis_to_vhdl

__all__ = [
    "Gate",
    "GateKind",
    "Module",
    "Port",
    "PortDirection",
    "NetlistInterlock",
    "SynthesisResult",
    "synthesize_interlock",
    "behavioural_verilog",
    "module_to_verilog",
    "synthesis_to_verilog",
    "behavioural_vhdl",
    "module_to_vhdl",
    "synthesis_to_vhdl",
]
