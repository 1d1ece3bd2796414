"""Pipeline micro-architecture substrate: description, simulator, interlocks."""

from .arbitration import (
    Arbiter,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from .instructions import (
    Instruction,
    InstructionKind,
    Program,
    alu,
    bubble,
    store,
    wait,
)
from .interlock import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    Interlock,
    SpecFixedPointInterlock,
    StuckResetInterlock,
    reference_interlock,
)
from .simulator import PipelineSimulator, SimulatorConfig, simulate
from .structure import (
    Architecture,
    ArchitectureError,
    CompletionBusSpec,
    PipeSpec,
    ScoreboardSpec,
    StageRef,
    StallInput,
)
from .trace import CycleRecord, HazardEvent, HazardKind, SimulationTrace
from .vcd import VcdWriter, write_vcd_file

__all__ = [
    "Arbiter",
    "FixedPriorityArbiter",
    "RoundRobinArbiter",
    "make_arbiter",
    "Instruction",
    "InstructionKind",
    "Program",
    "alu",
    "bubble",
    "store",
    "wait",
    "ClosedFormInterlock",
    "ConservativeCompletionInterlock",
    "Interlock",
    "SpecFixedPointInterlock",
    "StuckResetInterlock",
    "reference_interlock",
    "PipelineSimulator",
    "SimulatorConfig",
    "simulate",
    "Architecture",
    "ArchitectureError",
    "CompletionBusSpec",
    "PipeSpec",
    "ScoreboardSpec",
    "StageRef",
    "StallInput",
    "CycleRecord",
    "HazardEvent",
    "HazardKind",
    "SimulationTrace",
    "VcdWriter",
    "write_vcd_file",
]
