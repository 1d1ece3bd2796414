"""The BDD checker decides each claim under the assumptions in its support cone.

A claim that fails on its own is decided by conjoining its negation with
only the environment assumptions that share variables with it, directly or
through other assumptions; the SAT backend still decides
``environment → claim`` whole.  These tests pin that both engines fail the
same stages, that every BDD counterexample is a real witness inside the
whole environment, and that the FirePath-scale job finishes in bounded
memory.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.archs import load_architecture
from repro.checking import PropertyChecker, environment_assumptions
from repro.expr import eval_expr
from repro.faults import FaultInjector
from repro.pipeline import ClosedFormInterlock
from repro.spec import build_functional_spec, symbolic_most_liberal

SRC = Path(__file__).resolve().parents[1] / "src"

# 24 + 20 + 36 closed-form mutants of FaultInjector(spec, seed=3).
ARCHITECTURES = ["dac2002-example", "risc5", "fam-r4w2d5s1-bypass"]


@functools.lru_cache(maxsize=None)
def _closed_form_mutants(arch_name):
    architecture = load_architecture(arch_name)
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    mutants = [
        fault.interlock
        for fault in FaultInjector(spec, seed=3, derivation=derivation).standard_fault_set()
        if isinstance(fault.interlock, ClosedFormInterlock)
    ]
    return architecture, spec, derivation, mutants


def _checker(arch_name, backend):
    architecture, spec, derivation, _ = _closed_form_mutants(arch_name)
    return PropertyChecker(spec, architecture, backend=backend, derivation=derivation)


@pytest.mark.parametrize("arch_name", ARCHITECTURES)
def test_bdd_and_sat_fail_the_same_stages(arch_name):
    _, _, _, mutants = _closed_form_mutants(arch_name)
    bdd, sat = _checker(arch_name, "bdd"), _checker(arch_name, "sat")
    refuted = 0
    for mutant in mutants:
        for check in ("check_functional", "check_equivalence_with_derived"):
            failing = getattr(bdd, check)(mutant).failing_stages()
            assert failing == getattr(sat, check)(mutant).failing_stages(), (
                mutant.name,
                check,
            )
            refuted += bool(failing)
    assert refuted > 0


@pytest.mark.parametrize("arch_name", ARCHITECTURES)
def test_bdd_counterexamples_are_witnesses_in_the_whole_environment(arch_name):
    architecture, spec, derivation, mutants = _closed_form_mutants(arch_name)
    assumptions = environment_assumptions(architecture)
    names = derivation.context.manager.variable_order()
    checker = _checker(arch_name, "bdd")
    conditions = {clause.moe: clause.condition for clause in spec.clauses}
    witnesses = 0
    for mutant in mutants:
        implementation = mutant.functions()
        functional = checker.check_functional(mutant).failures()
        equivalence = checker.check_equivalence_with_derived(mutant).failures()
        for result in functional + equivalence:
            # A counterexample names the variables it needs; the rest are low.
            witness = dict.fromkeys(names, False)
            witness.update(result.counterexample)
            assert all(eval_expr(assumption, witness) for assumption in assumptions), (
                mutant.name,
                result.name,
            )
            moes = {moe: function.evaluate(witness) for moe, function in implementation.items()}
            if result in functional:
                # The mutant moves a stage whose stall condition holds.
                assert moes[result.moe]
                assert eval_expr(conditions[result.moe], {**witness, **moes})
            else:
                derived = derivation.moe_functions[result.moe].evaluate(witness)
                assert moes[result.moe] != derived, (mutant.name, result.name)
            witnesses += 1
    assert witnesses > 0


FIREPATH_JOB = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.campaign import JobSpec, run_verification_job
result = run_verification_job(JobSpec(arch="firepath-like"))
stages = {stage.name: [stage.ok, stage.details] for stage in result.stages}
print(json.dumps({"error": result.error, "stages": stages}, default=str))
"""


def test_firepath_job_passes_every_stage_in_one_gigabyte():
    pytest.importorskip("resource")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", FIREPATH_JOB],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout)
    assert outcome["error"] is None
    stages = outcome["stages"]
    assert list(stages) == [
        "properties",
        "derive",
        "maximality",
        "obligations",
        "faults",
        "analysis",
    ]
    assert all(ok for ok, _ in stages.values()), stages
    faults = stages["faults"][1]
    assert {
        key: faults[key]
        for key in ("injected", "vacuous", "detected_any", "detected_property", "missed")
    } == {"injected": 4, "vacuous": 0, "detected_any": 4, "detected_property": 4, "missed": 0}
