"""The environment's one definition, at FirePath scale and as the partition needs it.

Every engine reads the assumptions of ``repro.checking.environment``: the
BDD checker lifts them one by one into its partition, and the SAT backend
Tseitin-encodes their conjunction.  These tests pin the size of both at
256 registers, and that the partition refuses an assumption it cannot
soundly leave out of a cone.
"""

import pytest

from repro.archs import firepath_like_architecture, load_architecture
from repro.checking import PropertyChecker, environment_assumptions, environment_formula
from repro.checking import property_check
from repro.expr import Var
from repro.expr.cnf import to_cnf_clauses
from repro.pipeline import ClosedFormInterlock
from repro.spec import build_functional_spec, conservative_variant
from repro.spec.derivation import derivation_order
from repro.symbolic import SymbolicContext


def test_firepath_environment_at_256_registers_stays_small():
    architecture = firepath_like_architecture(num_registers=256)
    context = SymbolicContext(derivation_order(build_functional_spec(architecture)))
    lifted = [context.lift(assumption) for assumption in environment_assumptions(architecture)]
    groups = [function for function in lifted if len(function.support()) == 256]
    # Two bus-target groups and an src and a dst group per pipe, each the
    # 2n - 2 node BDD of "at most one of 256".
    assert len(groups) == 14
    assert {function.dag_size() for function in groups} == {510}
    # The encoder recurses over the formula at the default recursion limit.
    # The pairwise one-hot groups made 1,830,458 clauses.
    assert len(to_cnf_clauses(environment_formula(architecture)).clauses) == 45_542


def test_partition_refuses_an_assumption_false_with_its_signals_low(monkeypatch):
    architecture = load_architecture("dac2002-example")
    real = property_check.environment_assumptions

    def with_a_request_always_up(arch):
        return real(arch) + [Var("short.req") | Var("long.req")]

    monkeypatch.setattr(property_check, "environment_assumptions", with_a_request_always_up)
    checker = PropertyChecker(build_functional_spec(architecture), architecture)
    conservative = ClosedFormInterlock.from_spec(
        conservative_variant(architecture), name="conservative-variant"
    )
    with pytest.raises(ValueError, match=r"short\.req \| long\.req.*signals low"):
        checker.check_equivalence_with_derived(conservative)
