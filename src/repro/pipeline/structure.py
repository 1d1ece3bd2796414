"""Structural description of a pipelined micro-architecture.

The description captures exactly the information the DAC 2002 method needs:
which pipes and stages exist, which stages complete onto which bus, how
register hazards are tracked (scoreboard width), which issue stages operate
in lock step, and which instruction-specific or external conditions
(WAIT, interrupt) force stalls.  The functional specification of the
interlock logic is generated from this description by
:class:`repro.spec.builder.SpecBuilder`, and the same description drives the
cycle-accurate simulator in :mod:`repro.pipeline.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import signals as sig


class ArchitectureError(ValueError):
    """Raised when an architecture description is inconsistent."""


@dataclass(frozen=True)
class StageRef:
    """Reference to a single pipeline stage: pipe name and 1-based index."""

    pipe: str
    index: int

    @property
    def moe(self) -> str:
        """Name of the stage's moving-or-empty flag."""
        return sig.moe_name(self.pipe, self.index)

    @property
    def rtm(self) -> str:
        """Name of the stage's require-to-move flag."""
        return sig.rtm_name(self.pipe, self.index)

    def __str__(self) -> str:
        return f"{self.pipe}.{self.index}"


@dataclass(frozen=True)
class PipeSpec:
    """One execution pipe.

    Attributes:
        name: pipe name, e.g. ``"long"``.
        num_stages: total number of stages including the issue stage
            (stage 1) and the completion stage (stage ``num_stages``).
        completion_bus: name of the completion bus the final stage writes
            back on, or None for pipes whose results never leave the pipe
            (store-only pipes).
        shunt_stages: indices of decouple ("shunt") stages; they behave as
            ordinary stages for the interlock specification but are marked
            so the FirePath-like model and reports can single them out.
        has_wait: whether instruction-specific WAIT stalls are visible at
            this pipe's issue stage (only the long pipe in the paper).
    """

    name: str
    num_stages: int
    completion_bus: Optional[str] = None
    shunt_stages: Tuple[int, ...] = ()
    has_wait: bool = False

    def __post_init__(self):
        if self.num_stages < 1:
            raise ArchitectureError(f"pipe {self.name!r} must have at least one stage")
        for index in self.shunt_stages:
            if not 1 <= index <= self.num_stages:
                raise ArchitectureError(
                    f"shunt stage {index} out of range for pipe {self.name!r}"
                )

    def stages(self) -> List[StageRef]:
        """All stages of the pipe, issue stage first."""
        return [StageRef(self.name, index) for index in range(1, self.num_stages + 1)]

    def stage(self, index: int) -> StageRef:
        """A specific stage of this pipe."""
        if not 1 <= index <= self.num_stages:
            raise ArchitectureError(f"pipe {self.name!r} has no stage {index}")
        return StageRef(self.name, index)

    @property
    def issue_stage(self) -> StageRef:
        """Stage 1 — the combined fetch/decode/issue stage."""
        return StageRef(self.name, 1)

    @property
    def completion_stage(self) -> StageRef:
        """The final stage, which competes for the completion bus."""
        return StageRef(self.name, self.num_stages)


@dataclass(frozen=True)
class CompletionBusSpec:
    """A completion (writeback) bus shared by the final stages of pipes.

    Attributes:
        name: bus name, e.g. ``"c"``.
        priority: pipe names in decreasing priority order for fixed-priority
            arbitration (the paper gives the short pipe priority over the
            long pipe).
    """

    name: str
    priority: Tuple[str, ...]

    def __post_init__(self):
        if not self.priority:
            raise ArchitectureError(f"completion bus {self.name!r} has no pipes attached")
        if len(set(self.priority)) != len(self.priority):
            raise ArchitectureError(f"completion bus {self.name!r} lists a pipe twice")


@dataclass(frozen=True)
class ScoreboardSpec:
    """Register scoreboard configuration.

    Attributes:
        num_registers: number of architectural registers tracked.
        prefix: signal prefix of the scoreboard bits (``scb`` in the paper).
        bypass_buses: completion buses whose target register bypasses the
            scoreboard check in the same cycle (the paper's single bus
            ``c`` bypasses).
    """

    num_registers: int
    prefix: str = "scb"
    bypass_buses: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_registers < 1:
            raise ArchitectureError("scoreboard must track at least one register")

    def bit_names(self) -> List[str]:
        """Signal names of all scoreboard bits."""
        return [sig.scoreboard_name(a, self.prefix) for a in range(self.num_registers)]


@dataclass(frozen=True)
class StallInput:
    """An extra external or instruction-specific stall input.

    ``signal`` stalls the issue stages of all pipes in ``applies_to`` when
    asserted.  The paper's ``op_is_WAIT`` (long pipe only) and the
    FirePath-like interrupt request are modelled this way.
    """

    signal: str
    applies_to: Tuple[str, ...]
    description: str = ""


@dataclass
class Architecture:
    """Complete structural description of a pipelined design.

    Attributes:
        name: human-readable architecture name.
        pipes: the execution pipes.
        buses: the completion buses.
        scoreboard: register scoreboard configuration, or None when the
            design tracks no register hazards.
        lockstep_groups: groups of pipe names whose issue stages move in
            lock step (their stage-1 moe flags are pairwise equivalent).
        extra_stall_inputs: WAIT/interrupt style stall inputs.
    """

    name: str
    pipes: List[PipeSpec]
    buses: List[CompletionBusSpec] = field(default_factory=list)
    scoreboard: Optional[ScoreboardSpec] = None
    lockstep_groups: List[Tuple[str, ...]] = field(default_factory=list)
    extra_stall_inputs: List[StallInput] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises :class:`ArchitectureError`."""
        names = [pipe.name for pipe in self.pipes]
        if len(set(names)) != len(names):
            raise ArchitectureError("duplicate pipe names")
        if not self.pipes:
            raise ArchitectureError("an architecture needs at least one pipe")
        bus_names = [bus.name for bus in self.buses]
        if len(set(bus_names)) != len(bus_names):
            raise ArchitectureError("duplicate completion bus names")
        pipe_by_name = {pipe.name: pipe for pipe in self.pipes}
        for bus in self.buses:
            for pipe_name in bus.priority:
                if pipe_name not in pipe_by_name:
                    raise ArchitectureError(
                        f"bus {bus.name!r} references unknown pipe {pipe_name!r}"
                    )
                if pipe_by_name[pipe_name].completion_bus != bus.name:
                    raise ArchitectureError(
                        f"pipe {pipe_name!r} is listed on bus {bus.name!r} but its "
                        f"completion_bus is {pipe_by_name[pipe_name].completion_bus!r}"
                    )
        for pipe in self.pipes:
            if pipe.completion_bus is not None and pipe.completion_bus not in bus_names:
                raise ArchitectureError(
                    f"pipe {pipe.name!r} completes on unknown bus {pipe.completion_bus!r}"
                )
        for group in self.lockstep_groups:
            if len(group) < 2:
                raise ArchitectureError("a lock-step group needs at least two pipes")
            for pipe_name in group:
                if pipe_name not in pipe_by_name:
                    raise ArchitectureError(
                        f"lock-step group references unknown pipe {pipe_name!r}"
                    )
        for stall_input in self.extra_stall_inputs:
            for pipe_name in stall_input.applies_to:
                if pipe_name not in pipe_by_name:
                    raise ArchitectureError(
                        f"stall input {stall_input.signal!r} references unknown pipe "
                        f"{pipe_name!r}"
                    )

    # -- lookups -----------------------------------------------------------------

    def pipe(self, name: str) -> PipeSpec:
        """Look up a pipe by name."""
        for pipe in self.pipes:
            if pipe.name == name:
                return pipe
        raise ArchitectureError(f"no pipe named {name!r} in architecture {self.name!r}")

    def bus(self, name: str) -> CompletionBusSpec:
        """Look up a completion bus by name."""
        for bus in self.buses:
            if bus.name == name:
                return bus
        raise ArchitectureError(f"no bus named {name!r} in architecture {self.name!r}")

    def all_stages(self) -> List[StageRef]:
        """All stages of all pipes, deepest (completion) stages first per pipe.

        The ordering mirrors the backwards flow of control from the
        completion stages, which is also a good BDD variable order.
        """
        out: List[StageRef] = []
        for pipe in self.pipes:
            out.extend(reversed(pipe.stages()))
        return out

    def lockstep_partners(self, pipe_name: str) -> List[str]:
        """Other pipes whose issue stage is locked to the given pipe's."""
        partners: List[str] = []
        for group in self.lockstep_groups:
            if pipe_name in group:
                partners.extend(name for name in group if name != pipe_name)
        return partners

    def wait_signals_for(self, pipe_name: str) -> List[str]:
        """Extra stall input signals applying to a pipe's issue stage."""
        return [
            stall.signal
            for stall in self.extra_stall_inputs
            if pipe_name in stall.applies_to
        ]

    # -- signal inventory ----------------------------------------------------------

    def moe_signals(self) -> List[str]:
        """All moving-or-empty flag names."""
        return [stage.moe for stage in self.all_stages()]

    def rtm_signals(self) -> List[str]:
        """All require-to-move flag names."""
        return [stage.rtm for stage in self.all_stages()]

    def grant_signals(self) -> List[str]:
        """Completion bus grant signal names, one per completing pipe."""
        return [sig.gnt_name(pipe.name) for pipe in self.pipes if pipe.completion_bus]

    def request_signals(self) -> List[str]:
        """Completion bus request signal names, one per completing pipe."""
        return [sig.req_name(pipe.name) for pipe in self.pipes if pipe.completion_bus]

    def scoreboard_signals(self) -> List[str]:
        """Scoreboard bit names (empty when there is no scoreboard)."""
        if self.scoreboard is None:
            return []
        return self.scoreboard.bit_names()

    def bus_target_signals(self) -> List[str]:
        """One-hot completion-target indicators for every bus and address."""
        if self.scoreboard is None:
            return []
        out = []
        for bus in self.buses:
            for address in range(self.scoreboard.num_registers):
                out.append(sig.bus_target_indicator(bus.name, address))
        return out

    def issue_regaddr_signals(self) -> List[str]:
        """One-hot src/dst register-address indicators at every issue stage."""
        if self.scoreboard is None:
            return []
        out = []
        for pipe in self.pipes:
            for which in ("src", "dst"):
                for address in range(self.scoreboard.num_registers):
                    out.append(
                        sig.stage_regaddr_indicator(pipe.name, 1, which, address)
                    )
        return out

    def extra_stall_signals(self) -> List[str]:
        """WAIT / interrupt style stall input names."""
        return [stall.signal for stall in self.extra_stall_inputs]

    def input_signals(self) -> List[str]:
        """Every primary input of the interlock logic (everything except moe)."""
        out: List[str] = []
        out.extend(self.rtm_signals())
        out.extend(self.request_signals())
        out.extend(self.grant_signals())
        out.extend(self.extra_stall_signals())
        out.extend(self.scoreboard_signals())
        out.extend(self.bus_target_signals())
        out.extend(self.issue_regaddr_signals())
        return out

    def stage_count(self) -> int:
        """Total number of pipeline stages across all pipes."""
        return sum(pipe.num_stages for pipe in self.pipes)

    # -- reporting ----------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary (used by examples and benches)."""
        lines = [f"Architecture {self.name!r}:"]
        for pipe in self.pipes:
            bus = pipe.completion_bus or "-"
            shunts = f", shunts at {list(pipe.shunt_stages)}" if pipe.shunt_stages else ""
            lines.append(
                f"  pipe {pipe.name}: {pipe.num_stages} stages, completion bus {bus}{shunts}"
            )
        for bus in self.buses:
            lines.append(f"  bus {bus.name}: priority {' > '.join(bus.priority)}")
        if self.scoreboard is not None:
            lines.append(
                f"  scoreboard: {self.scoreboard.num_registers} registers "
                f"(prefix {self.scoreboard.prefix!r})"
            )
        for group in self.lockstep_groups:
            lines.append(f"  lock-step issue: {' = '.join(group)}")
        for stall in self.extra_stall_inputs:
            pipes = ", ".join(stall.applies_to)
            lines.append(f"  stall input {stall.signal} -> issue of {pipes}")
        lines.append(f"  total stages: {self.stage_count()}")
        return "\n".join(lines)

    def ascii_diagram(self) -> str:
        """Figure-1 style ASCII rendering of the pipe/stage structure."""
        lines = [f"{self.name}"]
        depth = max(pipe.num_stages for pipe in self.pipes)
        header = "stage | " + " | ".join(f"{pipe.name:^8}" for pipe in self.pipes)
        lines.append(header)
        lines.append("-" * len(header))
        for index in range(depth, 0, -1):
            cells = []
            for pipe in self.pipes:
                if index <= pipe.num_stages:
                    marker = "WB" if index == pipe.num_stages and pipe.completion_bus else "EX"
                    if index == 1:
                        marker = "ISS"
                    if index in pipe.shunt_stages:
                        marker = "SHNT"
                    cells.append(f"[{marker:^4}]")
                else:
                    cells.append(" " * 6)
            lines.append(f"  {index:>3} | " + " | ".join(f"{c:^8}" for c in cells))
        if self.buses:
            bus_line = "completion buses: " + ", ".join(
                f"{bus.name}({' > '.join(bus.priority)})" for bus in self.buses
            )
            lines.append(bus_line)
        return "\n".join(lines)
