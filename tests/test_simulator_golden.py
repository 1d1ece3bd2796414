"""Golden traces: the simulator's per-cycle output must not drift.

Each case simulates a fixed program and hashes everything a
:class:`~repro.pipeline.trace.SimulationTrace` records — every
``CycleRecord`` (dict key order included, since monitors and VCD dumps
iterate them), every hazard and the instruction counters.  The digests were
computed before the simulator precomputed its per-cycle plan, and those of
the wrapped interlocks (``WRAPPED``) while interlocks were still evaluated
on per-cycle dicts; a refactor of the simulator or of an interlock must
reproduce them bit for bit.

Instruction uids come from a process-wide counter, so each program's
instructions are renumbered from 1 (in pipe, then stream order) before the
run; the digest then depends only on the architecture, the interlock and
the program.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.archs import load_architecture
from repro.faults import FaultInjector
from repro.pipeline import (
    ClosedFormInterlock,
    ConservativeCompletionInterlock,
    Program,
    SimulatorConfig,
    SpecFixedPointInterlock,
    simulate,
)
from repro.spec import build_functional_spec, symbolic_most_liberal
from repro.synth import synthesize_interlock
from repro.workloads import CONTENTION_HEAVY, WorkloadGenerator, WorkloadProfile


def _program(architecture, seed: int, profile: WorkloadProfile) -> Program:
    program = WorkloadGenerator(architecture, seed=seed).generate(profile)
    uid = 0
    for pipe in architecture.pipes:
        for instruction in program.stream_for(pipe.name):
            uid += 1
            instruction.uid = uid
    return program


def _digest(trace) -> str:
    payload = repr(
        (
            [trace.record(index) for index in range(trace.num_cycles())],
            trace.hazards,
            trace.issued_instructions,
            trace.retired_instructions,
            trace.dropped_instructions,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _reference(architecture):
    spec = build_functional_spec(architecture)
    return spec, ClosedFormInterlock.from_derivation(symbolic_most_liberal(spec))


MIXED = WorkloadProfile(length=60, dependency_rate=0.5, wait_rate=0.1)
WAITS_AND_INTERRUPTS = WorkloadProfile(
    length=60, dependency_rate=0.5, wait_rate=0.2, interrupt_rate=0.15
)


def _family_case(name: str, seed: int, profile: WorkloadProfile, arbiter: str):
    architecture = load_architecture(name)
    _, interlock = _reference(architecture)
    program = _program(architecture, seed, profile)
    return simulate(architecture, interlock, program, SimulatorConfig(arbiter=arbiter))


GOLDEN = {
    "bypass-w1": (
        ("fam-r4w1d4s1-bypass", 3, MIXED, "fixed-priority"),
        "9ae1206ec310ad2200228d5ab81376b9595749ae1c41da26b07a4d52d596f26c",
    ),
    "blocking-w1": (
        ("fam-r4w1d5s1-blocking", 4, MIXED, "fixed-priority"),
        "8f267dcc94ddec531defcb2cf3cfc68251c4842e3d91079fa1f562fcdb5545ba",
    ),
    "lockstep-w2": (
        ("fam-r2w2d5s1-blocking-ls-wait", 5, WAITS_AND_INTERRUPTS, "fixed-priority"),
        "216c365cc9d52317ad956903003a98e86f1272c2c262c652bcd884885ee7f237",
    ),
    "paper-example-waits": (
        ("dac2002-example", 6, WAITS_AND_INTERRUPTS, "fixed-priority"),
        "eea9cc0d5efbbdc150abab37cc4d85bdd3508753c01a48df68ac5fae914e6f8c",
    ),
    "round-robin": (
        ("fam-r4w2d4s1-bypass", 7, CONTENTION_HEAVY, "round-robin"),
        "917ac7d540e3e1b9c63ac5b3253917131eae4bf691f9411f2358c8fbd77b3b56",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_trace(case):
    arguments, expected = GOLDEN[case]
    trace = _family_case(*arguments)
    assert trace.num_cycles() > 0
    assert _digest(trace) == expected


def test_golden_trace_of_a_hazardous_mutant():
    """A functional mutant's hazards (and the cycles around them) are pinned too."""
    architecture = load_architecture("fam-r4w2d4s1-bypass")
    spec = build_functional_spec(architecture)
    fault = FaultInjector(spec, seed=2).never_stall_fault("p0.1.moe")
    program = _program(architecture, 8, MIXED)
    trace = simulate(architecture, fault.interlock, program)
    assert trace.hazard_count() > 0
    assert {hazard.kind.value for hazard in trace.hazards} == {
        "lockstep_broken", "stale_operand", "waw_violation", "overwrite"
    }
    assert _digest(trace) == (
        "2f2680ddfd110566ec9860e0feb09d45a6a120f06b2ba8a6e9826a0e50d11a18"
    )


# Interlocks that wrap or replace the closed forms, one family member each:
# (architecture, program seed, profile, interlock factory over the spec).
WRAPPED = {
    "bad-reset": (
        ("fam-r4w1d5s1-blocking", 9, MIXED),
        lambda spec, architecture: FaultInjector(spec, seed=1)
        .bad_reset_fault(spec.moe_flags()[0], value=False, cycles=6)
        .interlock,
        "cc0de3bb367e62d0c9a50da28385f92542c3979b3d449031eeeea67ca55ebcc4",
    ),
    "conservative-completion": (
        ("fam-r4w2d4s1-bypass", 10, CONTENTION_HEAVY),
        lambda spec, architecture: ConservativeCompletionInterlock(spec, architecture),
        "43634fccbde43c2df5ead4abbad96dbdfe149ea0e9fe3196d2fbedcd6db6b96a",
    ),
    "spec-fixed-point": (
        ("fam-r2w2d5s1-blocking-ls-wait", 11, WAITS_AND_INTERRUPTS),
        lambda spec, architecture: SpecFixedPointInterlock(spec),
        "c5d3a97c7a1f3d384d85b9c5178afa62930f681713853300961f8f9238c11d92",
    ),
    "netlist": (
        ("fam-r4w1d4s1-bypass", 12, MIXED),
        lambda spec, architecture: synthesize_interlock(spec).interlock(),
        "699c5034ba9c97d7cad1f71a527990b23a054afd27e166cef5da3585553189be",
    ),
}


@pytest.mark.parametrize("case", sorted(WRAPPED))
def test_golden_trace_of_a_wrapped_interlock(case):
    (name, seed, profile), factory, expected = WRAPPED[case]
    architecture = load_architecture(name)
    interlock = factory(build_functional_spec(architecture), architecture)
    trace = simulate(architecture, interlock, _program(architecture, seed, profile))
    assert trace.num_cycles() > 0
    assert _digest(trace) == expected
