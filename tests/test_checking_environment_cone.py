"""The BDD checker decides each claim under the assumptions in its support cone.

A claim that fails on its own is decided by conjoining its negation with
only the environment assumptions that share variables with it, directly or
through other assumptions; the SAT backend still decides
``environment → claim`` whole.  These tests pin that both engines fail the
same stages, that every BDD counterexample is a real witness inside the
whole environment, that the faults stage's first refutation agrees with the
full report on every standard mutant of the registered architectures, and
that the FirePath-scale job finishes in bounded memory.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.archs import available_architectures, load_architecture
from repro.checking import PropertyChecker, environment_formula
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


def _assert_witness(result, kind, mutant, derivation, environment, conditions):
    """``result``'s counterexample lies in the whole environment and falsifies its claim."""
    where = (mutant.name, result.name)
    # A counterexample names the variables it needs; the rest are low.
    witness = dict.fromkeys(derivation.context.manager.variable_order(), False)
    witness.update(result.counterexample)
    assert eval_expr(environment, witness), where
    moes = {moe: function.evaluate(witness) for moe, function in mutant.functions().items()}
    if kind == "functional":
        # The mutant moves a stage whose stall condition holds.
        assert moes[result.moe], where
        assert eval_expr(conditions[result.moe], {**witness, **moes}), where
    else:
        derived = derivation.moe_functions[result.moe].evaluate(witness)
        assert moes[result.moe] != derived, where


@pytest.mark.parametrize("arch_name", ARCHITECTURES)
def test_bdd_counterexamples_are_witnesses_in_the_whole_environment(arch_name):
    architecture, spec, derivation, mutants = _closed_form_mutants(arch_name)
    environment = environment_formula(architecture)
    checker = _checker(arch_name, "bdd")
    conditions = {clause.moe: clause.condition for clause in spec.clauses}
    witnesses = 0
    for mutant in mutants:
        for kind, check in (
            ("functional", checker.check_functional),
            ("equivalence", checker.check_equivalence_with_derived),
        ):
            for result in check(mutant).failures():
                _assert_witness(result, kind, mutant, derivation, environment, conditions)
                witnesses += 1
    assert witnesses > 0


@pytest.mark.parametrize("arch_name", available_architectures())
def test_first_refutation_agrees_with_the_full_report(arch_name):
    # Every standard closed-form mutant of seeds 0-2; the derivation keeps
    # each one, so a mutant two seeds share is checked once.
    architecture = load_architecture(arch_name)
    spec = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(spec)
    mutants = {
        id(fault.interlock): fault.interlock
        for seed in range(3)
        for fault in FaultInjector(spec, seed=seed, derivation=derivation).standard_fault_set()
        if isinstance(fault.interlock, ClosedFormInterlock)
    }
    checker = PropertyChecker(spec, architecture, derivation=derivation)
    environment = environment_formula(architecture)
    conditions = {clause.moe: clause.condition for clause in spec.clauses}
    refuted = 0
    for mutant in mutants.values():
        for kind, check in (
            ("functional", checker.check_functional),
            ("equivalence", checker.check_equivalence_with_derived),
        ):
            # Asked before the full report of this kind exists.
            refutation = checker.first_refutation(mutant, kind)
            report = check(mutant)
            assert (refutation is None) == report.all_hold(), (mutant.name, kind)
            # Once the full report exists it answers, with no new claim.
            claims = checker.claims
            again = checker.first_refutation(mutant, kind)
            assert checker.claims == claims
            assert (again is None) == report.all_hold(), (mutant.name, kind)
            if refutation is None:
                continue
            assert not refutation.holds
            assert refutation.name in {result.name for result in report.failures()}
            _assert_witness(refutation, kind, mutant, derivation, environment, conditions)
            refuted += 1
    assert refuted > 0


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
