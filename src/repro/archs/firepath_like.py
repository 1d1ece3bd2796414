"""A FirePath-like architecture: the scaled-up target of the original project.

The paper describes the real FirePath as differing from the worked example
in being two-sided, having more and deeper execution pipes, pipeline
decouple (shunt) stages, interrupt logic and several completion buses.  The
proprietary design is not available, so this module provides a synthetic
architecture with the same structural features; the method only depends on
that structure, not on the datapath, so verification results on this model
exercise the same code paths the FirePath project did.

Defaults: two sides (``a`` and ``b``), each with one deep multiply/ALU pipe
(with a shunt stage), one shorter ALU pipe and one load/store pipe without
register writeback; one completion bus per side; a shared scoreboard; WAIT
visible on each side's deep pipe; and a global interrupt request stalling
every issue stage.
"""

from __future__ import annotations

from typing import List, Tuple

from ..pipeline.structure import (
    Architecture,
    CompletionBusSpec,
    PipeSpec,
    ScoreboardSpec,
    StallInput,
)

DEFAULT_SIDES = ("a", "b")


def firepath_like_architecture(
    sides: Tuple[str, ...] = DEFAULT_SIDES,
    deep_pipe_stages: int = 6,
    short_pipe_stages: int = 3,
    loadstore_stages: int = 4,
    num_registers: int = 16,
    with_interrupt: bool = True,
    with_wait: bool = True,
) -> Architecture:
    """Build the FirePath-like two-sided LIW architecture.

    Args:
        sides: names of the machine's sides (two for an LIW pair).
        deep_pipe_stages: depth of each side's deep (multiply) pipe,
            including issue and completion; must be at least 3 so the shunt
            stage has room between issue and completion.
        short_pipe_stages: depth of each side's short ALU pipe.
        loadstore_stages: depth of each side's load/store pipe (no register
            writeback, hence no completion bus).
        num_registers: registers tracked by the shared scoreboard.
        with_interrupt: include the global interrupt stall input.
        with_wait: include per-side WAIT stall inputs on the deep pipes.
    """
    if deep_pipe_stages < 3:
        raise ValueError("the deep pipe needs at least 3 stages (issue, shunt, completion)")
    if short_pipe_stages < 2:
        raise ValueError("the short pipe needs at least 2 stages")
    if loadstore_stages < 2:
        raise ValueError("the load/store pipe needs at least 2 stages")

    pipes: List[PipeSpec] = []
    buses: List[CompletionBusSpec] = []
    lockstep_groups: List[Tuple[str, ...]] = []
    stall_inputs: List[StallInput] = []

    for side in sides:
        deep = f"{side}_mul"
        short = f"{side}_alu"
        loadstore = f"{side}_ls"
        bus = f"c_{side}"
        shunt_stage = deep_pipe_stages - 2
        pipes.append(
            PipeSpec(
                name=deep,
                num_stages=deep_pipe_stages,
                completion_bus=bus,
                shunt_stages=(shunt_stage,),
                has_wait=with_wait,
            )
        )
        pipes.append(PipeSpec(name=short, num_stages=short_pipe_stages, completion_bus=bus))
        pipes.append(PipeSpec(name=loadstore, num_stages=loadstore_stages))
        buses.append(CompletionBusSpec(name=bus, priority=(short, deep)))
        lockstep_groups.append((deep, short, loadstore))
        if with_wait:
            stall_inputs.append(
                StallInput(
                    signal=f"{side}.op_is_WAIT",
                    applies_to=(deep,),
                    description=f"wait state visible at side {side}'s deep pipe issue stage",
                )
            )

    if with_interrupt:
        all_pipes = tuple(pipe.name for pipe in pipes)
        stall_inputs.append(
            StallInput(
                signal="interrupt",
                applies_to=all_pipes,
                description="global interrupt request stalls every issue stage",
            )
        )

    scoreboard = ScoreboardSpec(
        num_registers=num_registers,
        bypass_buses=tuple(bus.name for bus in buses),
    )
    return Architecture(
        name="firepath-like",
        pipes=pipes,
        buses=buses,
        scoreboard=scoreboard,
        lockstep_groups=lockstep_groups,
        extra_stall_inputs=stall_inputs,
    )

