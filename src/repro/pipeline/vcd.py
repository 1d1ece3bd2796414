"""VCD (Value Change Dump) export of simulation traces.

Designers debug pipeline-flow problems in a waveform viewer; this module
writes the control-signal portion of a :class:`~repro.pipeline.trace.SimulationTrace`
as an IEEE-1364 VCD file so the stalls found by the assertions can be
inspected with standard EDA tooling (GTKWave and friends).

Only single-bit control signals are dumped — exactly the signals the
specification talks about (moe, rtm, req/gnt, scoreboard bits, bus-target
and register-address indicators, WAIT/interrupt inputs) — plus, optionally,
per-stage occupancy markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, TextIO

from .trace import SimulationTrace

__all__ = ["VcdWriter", "write_vcd_file"]

# Printable, non-whitespace VCD identifier characters.
_IDENTIFIER_ALPHABET = [chr(code) for code in range(33, 127)]


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


@dataclass
class VcdWriter:
    """Streams a simulation trace into VCD text.

    The writer groups signals into two scopes: ``inputs`` (everything the
    interlock samples) and ``moe`` (the flags it drives).  Occupancy markers
    are emitted as a third scope when requested, as 1-bit "stage busy"
    signals.
    """

    timescale: str = "1 ns"
    include_occupancy: bool = True
    date: str = "generated by repro.pipeline.vcd"

    def write(self, trace: SimulationTrace, stream: TextIO) -> None:
        """Write the whole trace to an open text stream."""
        if not trace.cycles:
            raise ValueError("cannot dump an empty trace")
        first = trace.cycles[0]
        input_names = sorted(first.inputs)
        moe_names = sorted(first.moe)
        occupancy_names = sorted(first.occupancy) if self.include_occupancy else []

        identifiers: Dict[str, str] = {}
        ordered: List[str] = []
        for name in input_names + moe_names + [f"busy.{n}" for n in occupancy_names]:
            identifiers[name] = _identifier_for(len(identifiers))
            ordered.append(name)

        stream.write(f"$date {self.date} $end\n")
        stream.write(f"$version repro (Eder & Barrett DAC 2002 reproduction) $end\n")
        stream.write(f"$timescale {self.timescale} $end\n")
        stream.write(f"$scope module {_sanitise(trace.architecture_name)} $end\n")

        stream.write("$scope module inputs $end\n")
        for name in input_names:
            stream.write(f"$var wire 1 {identifiers[name]} {_sanitise(name)} $end\n")
        stream.write("$upscope $end\n")

        stream.write("$scope module moe $end\n")
        for name in moe_names:
            stream.write(f"$var wire 1 {identifiers[name]} {_sanitise(name)} $end\n")
        stream.write("$upscope $end\n")

        if occupancy_names:
            stream.write("$scope module occupancy $end\n")
            for name in occupancy_names:
                stream.write(
                    f"$var wire 1 {identifiers['busy.' + name]} {_sanitise('busy.' + name)} $end\n"
                )
            stream.write("$upscope $end\n")

        stream.write("$upscope $end\n")
        stream.write("$enddefinitions $end\n")

        previous: Dict[str, bool] = {}
        for record in trace.cycles:
            values: Dict[str, bool] = {}
            values.update({name: bool(record.inputs.get(name, False)) for name in input_names})
            values.update({name: bool(record.moe.get(name, False)) for name in moe_names})
            for name in occupancy_names:
                values[f"busy.{name}"] = record.occupancy.get(name) is not None

            changes = [
                name for name in ordered if previous.get(name) != values[name]
            ] if previous else ordered
            if changes or not previous:
                stream.write(f"#{record.cycle}\n")
                if not previous:
                    stream.write("$dumpvars\n")
                for name in changes:
                    stream.write(f"{int(values[name])}{identifiers[name]}\n")
                if not previous:
                    stream.write("$end\n")
            previous = values
        stream.write(f"#{trace.cycles[-1].cycle + 1}\n")


def write_vcd_file(
    trace: SimulationTrace,
    path: str,
    include_occupancy: bool = True,
    timescale: str = "1 ns",
) -> None:
    """Write a trace to a ``.vcd`` file."""
    with open(path, "w", encoding="ascii") as stream:
        VcdWriter(timescale=timescale, include_occupancy=include_occupancy).write(trace, stream)
