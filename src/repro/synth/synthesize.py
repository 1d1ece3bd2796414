"""Synthesis of the interlock control logic from its functional specification.

This implements the paper's stated end goal ("Ultimately, we would like to
generate the HDL code that implements the pipeline flow control logic from
the functional specification"):

1. derive the closed-form maximum-performance moe equations with the
   Section 3.2 fixed point,
2. lower each equation into primitive gates (structural netlist IR),
3. emit synthesisable Verilog (:mod:`repro.synth.verilog`).

The generated block is purely combinational in the interlock inputs, which
matches the specification's per-cycle semantics; registering of inputs or
the insertion of shunt stages for timing closure (discussed as future work
in the paper's Section 5) is left to the consuming design flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..pipeline.interlock import ClosedFormInterlock, RowFunction, row_positions
from ..pipeline.signals import to_hdl_identifier
from ..spec.derivation import DerivationResult, symbolic_most_liberal
from ..spec.functional import FunctionalSpec
from .hdl_ir import Gate, GateKind, Module, Port, PortDirection


@dataclass
class SynthesisResult:
    """Everything the synthesiser produced for one specification.

    Attributes:
        spec: the functional specification synthesis started from.
        derivation: the fixed-point derivation used for the moe equations.
        module: the structural netlist.
        name_map: mapping from specification signal names to HDL identifiers.
    """

    spec: FunctionalSpec
    derivation: DerivationResult
    module: Module
    name_map: Dict[str, str]

    def interlock(self) -> ClosedFormInterlock:
        """A simulator-pluggable interlock that evaluates the synthesised netlist."""
        return NetlistInterlock(self)

    def gate_count(self) -> int:
        """Primitive gate count of the synthesised module."""
        return self.module.gate_count()


class NetlistInterlock(ClosedFormInterlock):
    """Interlock backed by the synthesised netlist's evaluator.

    It subclasses :class:`ClosedFormInterlock` so the property checker can
    reason about the same closed forms, but its :meth:`row_function`
    executes the gate-level netlist — the test-suite uses the pair to show
    netlist and closed forms agree on every input.
    """

    def __init__(self, synthesis: SynthesisResult):
        super().__init__(
            synthesis.derivation.moe_functions,
            name=f"synthesised({synthesis.spec.name})",
            description="evaluates the synthesised gate-level netlist each cycle",
        )
        self._synthesis = synthesis

    def row_function(self, input_names: Sequence[str]) -> Tuple[Tuple[str, ...], RowFunction]:
        synthesis = self._synthesis
        name_map = synthesis.name_map
        signals = synthesis.spec.input_signals()
        ports = tuple(
            zip([name_map[signal] for signal in signals], row_positions(input_names, signals))
        )
        moe_names = tuple(synthesis.spec.moe_flags())
        outputs = tuple(name_map[moe] for moe in moe_names)
        evaluate_module = synthesis.module.evaluate

        def evaluate(row: Sequence[bool]) -> List[bool]:
            values = evaluate_module({port: row[where] for port, where in ports})
            return [values[port] for port in outputs]

        return moe_names, evaluate


class _NetlistBuilder:
    """Lowers ISOP covers to gates with structural sharing."""

    def __init__(self, module: Module):
        self.module = module
        self._net_cache: Dict[tuple, str] = {}
        self.counter = 0

    def fresh_wire(self, hint: str) -> str:
        self.counter += 1
        name = f"n{self.counter}_{hint}"
        self.module.wires.append(name)
        return name

    def not_net(self, operand: str) -> str:
        """A shared inverter of an existing net."""
        key = ("not", operand)
        net = self._net_cache.get(key)
        if net is None:
            net = self.fresh_wire("not")
            self.module.gates.append(Gate(kind=GateKind.NOT, output=net, inputs=(operand,)))
            self._net_cache[key] = net
        return net

    def lower_cover(self, cover: Sequence[Mapping[str, bool]]) -> str:
        """Lower an ISOP cover (cubes of HDL-named literals) to an AND–OR net.

        The two-level structure is built directly — one AND per cube over
        shared literal nets, one OR over the cube nets — without an
        intermediate expression tree; duplicate cubes and inverters are
        shared through the net cache.
        """
        if not cover:
            net = self.fresh_wire("const")
            self.module.gates.append(Gate(kind=GateKind.CONST0, output=net))
            return net
        cube_nets = []
        for cube in cover:
            if not cube:  # the empty product: the cover is the constant TRUE
                net = self.fresh_wire("const")
                self.module.gates.append(Gate(kind=GateKind.CONST1, output=net))
                return net
            literals = tuple(sorted(cube.items()))
            net = self._net_cache.get(("cube", literals))
            if net is None:
                literal_nets = tuple(
                    name if polarity else self.not_net(name)
                    for name, polarity in literals
                )
                if len(literal_nets) == 1:
                    net = literal_nets[0]
                else:
                    net = self.fresh_wire("and")
                    self.module.gates.append(
                        Gate(kind=GateKind.AND, output=net, inputs=literal_nets)
                    )
                self._net_cache[("cube", literals)] = net
            cube_nets.append(net)
        if len(cube_nets) == 1:
            return cube_nets[0]
        net = self.fresh_wire("or")
        self.module.gates.append(
            Gate(kind=GateKind.OR, output=net, inputs=tuple(cube_nets))
        )
        return net


def synthesize_interlock(
    spec: FunctionalSpec,
    module_name: Optional[str] = None,
    derivation: Optional[DerivationResult] = None,
) -> SynthesisResult:
    """Synthesise the maximum-performance interlock for a functional spec."""
    derivation = derivation or symbolic_most_liberal(spec)
    module_name = module_name or to_hdl_identifier(f"{spec.name}_interlock")

    name_map: Dict[str, str] = {}
    module = Module(
        name=module_name,
        comment=(
            "Maximum-performance pipeline interlock synthesised from the functional "
            f"specification {spec.name!r} (DAC 2002 method)."
        ),
    )

    input_names: List[str] = []
    for signal in spec.input_signals():
        identifier = to_hdl_identifier(signal)
        name_map[signal] = identifier
        input_names.append(identifier)
        module.ports.append(
            Port(name=identifier, direction=PortDirection.INPUT, comment=signal)
        )
    for moe in spec.moe_flags():
        identifier = to_hdl_identifier(moe)
        name_map[moe] = identifier
        module.ports.append(
            Port(name=identifier, direction=PortDirection.OUTPUT, comment=moe)
        )

    builder = _NetlistBuilder(module)
    for moe in spec.moe_flags():
        # Gates come straight from the (possibly complemented) minimized
        # ISOP cover of the BDD node — no expression tree is built or
        # simplified on the way.
        complemented, cover = derivation.moe_functions[moe].minimized_cover()
        hdl_cover = [
            {name_map.get(name, to_hdl_identifier(name)): polarity
             for name, polarity in cube.items()}
            for cube in cover
        ]
        net = builder.lower_cover(hdl_cover)
        if complemented:
            net = builder.not_net(net)
        module.gates.append(
            Gate(kind=GateKind.BUF, output=name_map[moe], inputs=(net,))
        )

    module.validate()
    return SynthesisResult(
        spec=spec, derivation=derivation, module=module, name_map=name_map
    )

