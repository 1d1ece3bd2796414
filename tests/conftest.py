"""Shared fixtures: small architectures and their specifications.

The example architecture is instantiated with a reduced register count in
most tests; the method is independent of the scoreboard width and the
smaller expansion keeps BDDs and expression trees quick to build.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import pytest
from hypothesis import HealthCheck, settings

from repro.archs import (
    example_architecture,
    firepath_like_architecture,
    risc5_architecture,
)
from repro.pipeline.instructions import Program, alu
from repro.pipeline.interlock import ClosedFormInterlock
from repro.pipeline.trace import CycleRecord, SimulationTrace
from repro.spec import build_functional_spec, symbolic_most_liberal

# Shared CI runners are slow and noisy: wall-clock deadlines flake and a
# full example budget wastes matrix minutes.  The "ci" profile (loaded
# whenever CI=1, which GitHub Actions sets) disables deadlines and trims
# the example count; local runs keep hypothesis defaults apart from the
# deadline, which the BDD-heavy properties routinely exceed on cold
# caches.
settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile("ci" if os.environ.get("CI") else "dev")


def with_replaced_flag(interlock, moe, expression):
    """A copy of ``interlock`` with one flag's closed form replaced, in its context."""
    functions = interlock.functions()
    if moe not in functions:
        raise KeyError(f"interlock drives no flag named {moe!r}")
    functions[moe] = interlock.context.lift(expression)
    return ClosedFormInterlock(functions, context=interlock.context)


def moe_of(interlock, valuation):
    """The interlock's moe flags for one valuation, through its row function.

    The row is the valuation's values in its own key order; a signal the
    interlock reads that the valuation lacks raises ``ValueError``.
    """
    names = tuple(valuation)
    moe_names, evaluate = interlock.row_function(names)
    return dict(zip(moe_names, evaluate([valuation[name] for name in names])))


def trace_of_records(records, architecture_name="hand-built", interlock_name="hand-built"):
    """A columnar trace holding hand-built ``CycleRecord`` objects, in order.

    Signal and stage names come from the first record; every record must
    name the same ones.  ``record(k)`` of the result equals ``records[k]``
    with its ``cycle`` set to ``k``.
    """
    first = records[0] if records else CycleRecord(cycle=0, inputs={}, moe={}, occupancy={})
    trace = SimulationTrace(
        architecture_name,
        interlock_name,
        input_names=list(first.inputs),
        moe_names=list(first.moe),
        occupancy_names=list(first.occupancy),
    )
    for record in records:
        assert (tuple(record.inputs), tuple(record.moe), tuple(record.occupancy)) == (
            trace.input_names,
            trace.moe_names,
            trace.occupancy_names,
        ), "hand-built records must name the same signals and stages"
        trace.input_rows.append([bool(record.inputs[name]) for name in trace.input_names])
        trace.moe_rows.append([bool(record.moe[name]) for name in trace.moe_names])
        trace.occupancy_rows.append([record.occupancy[name] for name in trace.occupancy_names])
        trace.issued.append(list(record.issued))
        trace.retired.append(list(record.retired))
        trace.moved.append(list(record.moved))
        trace.stalled.append(list(record.stalled))
    return trace


def resigned_artifact(data, edit=None, version=None):
    """RBDD artifact bytes with an edited manifest or header version, re-signed.

    ``edit(manifest)`` changes the decoded manifest in place; the bytes get
    a fresh SHA-256 trailer, so only the format's structural checks can
    reject them.
    """
    magic, old_version, length = struct.unpack_from("<4sII", data)
    manifest = json.loads(data[12 : 12 + length])
    if edit is not None:
        edit(manifest)
    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    body = (
        struct.pack("<4sII", magic, old_version if version is None else version, len(encoded))
        + encoded
        + data[12 + length : -32]
    )
    return body + hashlib.sha256(body).digest()


def dependent_chain(pipe, length, num_registers=8):
    """ALU instructions each reading the register the previous one wrote."""
    stream = []
    previous_dst = 0
    for index in range(length):
        dst = (index + 1) % num_registers
        stream.append(alu(pipe, dst=dst, src=previous_dst))
        previous_dst = dst
    return stream


def streams_program(**streams):
    """A program from keyword per-pipe instruction streams."""
    return Program(streams={pipe: list(items) for pipe, items in streams.items()})


@pytest.fixture(scope="session")
def example_arch():
    """The paper's Figure 1 architecture with a 2-register scoreboard."""
    return example_architecture(num_registers=2)


@pytest.fixture(scope="session")
def example_arch_full():
    """The paper's Figure 1 architecture with the full 8-register scoreboard."""
    return example_architecture()


@pytest.fixture(scope="session")
def example_spec(example_arch):
    """Functional specification of the small example architecture."""
    return build_functional_spec(example_arch)


@pytest.fixture(scope="session")
def example_spec_full(example_arch_full):
    """Functional specification of the full example architecture."""
    return build_functional_spec(example_arch_full)


@pytest.fixture(scope="session")
def example_derivation(example_spec):
    """Symbolic fixed-point derivation for the small example architecture."""
    return symbolic_most_liberal(example_spec)


@pytest.fixture(scope="session")
def example_interlock(example_derivation):
    """Maximum-performance closed-form interlock for the example architecture."""
    return ClosedFormInterlock.from_derivation(example_derivation)


@pytest.fixture(scope="session")
def risc_arch():
    """The single-pipe five-stage RISC architecture with 4 registers."""
    return risc5_architecture(num_registers=4)


@pytest.fixture(scope="session")
def risc_spec(risc_arch):
    """Functional specification of the RISC architecture."""
    return build_functional_spec(risc_arch)


@pytest.fixture(scope="session")
def firepath_arch():
    """A reduced FirePath-like architecture (shallower pipes, 4 registers)."""
    return firepath_like_architecture(num_registers=4, deep_pipe_stages=5)


@pytest.fixture(scope="session")
def firepath_spec(firepath_arch):
    """Functional specification of the reduced FirePath-like architecture."""
    return build_functional_spec(firepath_arch)
