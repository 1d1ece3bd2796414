"""VCD (Value Change Dump) export of simulation traces.

Designers debug pipeline-flow problems in a waveform viewer; this module
writes the control-signal portion of a :class:`~repro.pipeline.trace.SimulationTrace`
as an IEEE-1364 VCD file so the stalls found by the assertions can be
inspected with standard EDA tooling (GTKWave and friends).

Only single-bit control signals are dumped — exactly the signals the
specification talks about (moe, rtm, req/gnt, scoreboard bits, bus-target
and register-address indicators, WAIT/interrupt inputs) — plus a 1-bit
"stage busy" marker per stage.
"""

from __future__ import annotations

from itertools import count, groupby
from typing import List, Optional, TextIO

from .trace import SimulationTrace

__all__ = ["write_vcd", "write_vcd_file"]

# Printable, non-whitespace VCD identifier characters.
_IDENTIFIER_ALPHABET = [chr(code) for code in range(33, 127)]

_DATE = "generated by repro.pipeline.vcd"
_TIMESCALE = "1 ns"


def _identifier_for(index: int) -> str:
    """Short VCD identifier code for the index-th signal."""
    base = len(_IDENTIFIER_ALPHABET)
    if index < 0:
        raise ValueError("signal index must be non-negative")
    digits: List[str] = []
    index += 1
    while index:
        index, remainder = divmod(index - 1, base)
        digits.append(_IDENTIFIER_ALPHABET[remainder])
    return "".join(reversed(digits))


def _sanitise(name: str) -> str:
    """VCD variable names may not contain whitespace; keep dots for hierarchy."""
    return name.replace(" ", "_").replace("[", "_").replace("]", "_")


def write_vcd(trace: SimulationTrace, stream: TextIO) -> None:
    """Write the whole trace to an open text stream as VCD.

    Signals are grouped into up to three scopes, each sorted by name:
    ``inputs`` (everything the interlock samples), ``moe`` (the flags it
    drives) and ``occupancy`` (``busy.<pipe>.<stage>``, high while the
    stage holds an instruction); a scope without signals is left out.
    Cycle ``k`` is time ``k``; after the first full dump only changed
    values are written.
    """
    num_cycles = trace.num_cycles()
    if not num_cycles:
        raise ValueError("cannot dump an empty trace")
    busy_rows = [[uid is not None for uid in row] for row in trace.occupancy_rows]
    # (scope, name, rows, row position) in identifier order.
    signals = [
        (scope, name, rows, position)
        for scope, names, rows in (
            ("inputs", trace.input_names, trace.input_rows),
            ("moe", trace.moe_names, trace.moe_rows),
            ("occupancy", [f"busy.{name}" for name in trace.occupancy_names], busy_rows),
        )
        for name, position in sorted(zip(names, count()))
    ]
    identifiers = [_identifier_for(index) for index in range(len(signals))]

    stream.write(f"$date {_DATE} $end\n")
    stream.write("$version repro (Eder & Barrett DAC 2002 reproduction) $end\n")
    stream.write(f"$timescale {_TIMESCALE} $end\n")
    stream.write(f"$scope module {_sanitise(trace.architecture_name)} $end\n")
    for scope, declared in groupby(zip(identifiers, signals), key=lambda item: item[1][0]):
        stream.write(f"$scope module {scope} $end\n")
        for identifier, (_, name, _, _) in declared:
            stream.write(f"$var wire 1 {identifier} {_sanitise(name)} $end\n")
        stream.write("$upscope $end\n")
    stream.write("$upscope $end\n")
    stream.write("$enddefinitions $end\n")

    previous: Optional[List[bool]] = None
    for cycle in range(num_cycles):
        values = [bool(rows[cycle][position]) for _, _, rows, position in signals]
        if previous is None:
            stream.write("#0\n$dumpvars\n")
            stream.writelines(f"{int(value)}{code}\n" for code, value in zip(identifiers, values))
            stream.write("$end\n")
        elif values != previous:
            stream.write(f"#{cycle}\n")
            stream.writelines(
                f"{int(value)}{code}\n"
                for code, value, before in zip(identifiers, values, previous)
                if value != before
            )
        previous = values
    stream.write(f"#{num_cycles}\n")


def write_vcd_file(trace: SimulationTrace, path: str) -> None:
    """Write a trace to a ``.vcd`` file."""
    with open(path, "w", encoding="ascii") as stream:
        write_vcd(trace, stream)
