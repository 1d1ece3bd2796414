"""A small structural HDL intermediate representation.

The synthesiser (:mod:`repro.synth.synthesize`) lowers the derived interlock
equations into this IR; the Verilog emitter prints it and the built-in
evaluator executes it, which lets the test-suite prove that the emitted RTL
computes exactly the derived maximum-performance moe functions without
needing an external simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping


class PortDirection(Enum):
    """Direction of a module port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Port:
    """A single-bit module port."""

    name: str
    direction: PortDirection
    comment: str = ""


class GateKind(Enum):
    """Primitive gate types the synthesiser emits."""

    NOT = "not"
    AND = "and"
    OR = "or"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"


@dataclass(frozen=True)
class Gate:
    """One primitive gate driving one output net."""

    kind: GateKind
    output: str
    inputs: tuple = ()

    def __post_init__(self):
        expected = {
            GateKind.NOT: (1, 1),
            GateKind.BUF: (1, 1),
            GateKind.AND: (2, None),
            GateKind.OR: (2, None),
            GateKind.CONST0: (0, 0),
            GateKind.CONST1: (0, 0),
        }[self.kind]
        low, high = expected
        count = len(self.inputs)
        if count < low or (high is not None and count > high):
            raise ValueError(
                f"{self.kind.value} gate {self.output!r} has {count} inputs"
            )


@dataclass
class Module:
    """A combinational module: ports, wires and gates in topological order."""

    name: str
    ports: List[Port] = field(default_factory=list)
    wires: List[str] = field(default_factory=list)
    gates: List[Gate] = field(default_factory=list)
    comment: str = ""

    # -- structure queries -------------------------------------------------------

    def inputs(self) -> List[Port]:
        """Input ports in declaration order."""
        return [port for port in self.ports if port.direction is PortDirection.INPUT]

    def outputs(self) -> List[Port]:
        """Output ports in declaration order."""
        return [port for port in self.ports if port.direction is PortDirection.OUTPUT]

    def port_names(self) -> List[str]:
        """All port names."""
        return [port.name for port in self.ports]

    def gate_count(self) -> int:
        """Number of primitive gates (a crude area estimate)."""
        return len(self.gates)

    def validate(self) -> None:
        """Check single drivers, known nets and topological gate order."""
        known = {port.name for port in self.inputs()}
        declared = set(self.port_names()) | set(self.wires)
        driven = set()
        for gate in self.gates:
            for source in gate.inputs:
                if source not in declared:
                    raise ValueError(f"gate {gate.output!r} reads undeclared net {source!r}")
                if source not in known:
                    raise ValueError(
                        f"gate {gate.output!r} reads net {source!r} before it is driven"
                    )
            if gate.output not in declared:
                raise ValueError(f"gate drives undeclared net {gate.output!r}")
            if gate.output in driven:
                raise ValueError(f"net {gate.output!r} has multiple drivers")
            driven.add(gate.output)
            known.add(gate.output)
        for port in self.outputs():
            if port.name not in driven:
                raise ValueError(f"output port {port.name!r} is never driven")

    # -- execution -------------------------------------------------------------------

    def evaluate(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate the module combinationally for one input valuation."""
        values: Dict[str, bool] = {}
        for port in self.inputs():
            try:
                values[port.name] = bool(inputs[port.name])
            except KeyError as exc:
                raise KeyError(f"missing value for input port {port.name!r}") from exc
        for gate in self.gates:
            operands = [values[name] for name in gate.inputs]
            if gate.kind is GateKind.NOT:
                result = not operands[0]
            elif gate.kind is GateKind.BUF:
                result = operands[0]
            elif gate.kind is GateKind.AND:
                result = all(operands)
            elif gate.kind is GateKind.OR:
                result = any(operands)
            elif gate.kind is GateKind.CONST0:
                result = False
            else:
                result = True
            values[gate.output] = result
        return {port.name: values[port.name] for port in self.outputs()}
