"""Tests for the minimality of derived covers and VHDL emission (repro.synth.vhdl)."""

import pytest

from repro.expr import parse_expr
from repro.expr.minimize import literal_count, minimize_expr
from repro.spec import FunctionalSpec, StallClause, symbolic_most_liberal
from repro.symbolic import SymbolicContext
from repro.synth import (
    behavioural_vhdl,
    module_to_vhdl,
    synthesis_to_vhdl,
    synthesize_interlock,
)


@pytest.fixture(scope="module")
def redundant_spec():
    """A small spec whose stall conditions carry removable redundancy."""
    return FunctionalSpec(
        name="redundant",
        clauses=[
            StallClause(moe="p.2.moe", condition=parse_expr("req & !gnt | req & !gnt & rtm")),
            StallClause(
                moe="p.1.moe",
                condition=parse_expr("rtm & !p.2.moe | rtm & !p.2.moe & wait | wait"),
            ),
        ],
        inputs=["req", "gnt", "rtm", "wait"],
    )


class TestDerivedCovers:
    def test_derived_covers_need_no_further_minimisation(self, redundant_spec):
        # The stall conditions carry duplicated and absorbed terms; the
        # materialized ISOP covers must already be as small as an exact
        # two-level minimisation of the same functions.
        derivation = symbolic_most_liberal(redundant_spec)
        context = SymbolicContext()
        for moe, cover in derivation.moe_expressions.items():
            minimum = minimize_expr(cover)
            assert literal_count(cover) <= literal_count(minimum), moe
            assert context.lift(cover).equivalent(context.lift(minimum)), moe


class TestVhdlEmission:
    def test_behavioural_vhdl_structure(self, example_spec, example_derivation):
        text = behavioural_vhdl(example_spec, example_derivation, entity_name="dut")
        assert "library ieee;" in text
        assert "entity dut is" in text
        assert "architecture rtl of dut is" in text
        assert text.count("<=") == len(example_spec.moe_flags())
        # Every moe flag appears as an output port.
        for moe in example_spec.moe_flags():
            assert moe.replace(".", "_") in text

    def test_netlist_vhdl_structure(self, example_spec):
        synthesis = synthesize_interlock(example_spec, module_name="netlist_dut")
        text = synthesis_to_vhdl(synthesis)
        assert "entity netlist_dut is" in text
        assert "architecture netlist of netlist_dut is" in text
        # One signal declaration per internal wire and one assignment per gate.
        assert text.count("signal ") == len(synthesis.module.wires)
        assert text.count("<=") == synthesis.module.gate_count()

    def test_vhdl_ports_have_no_trailing_semicolon_before_close(self, example_spec):
        synthesis = synthesize_interlock(example_spec)
        text = module_to_vhdl(synthesis.module)
        for previous, line in zip(text.splitlines(), text.splitlines()[1:]):
            if line.strip() == ");":
                assert not previous.split("--")[0].rstrip().endswith(";")

    def test_behavioural_and_netlist_share_port_names(self, example_spec, example_derivation):
        synthesis = synthesize_interlock(example_spec, derivation=example_derivation)
        behavioural = behavioural_vhdl(example_spec, example_derivation, entity_name="x")
        for port in synthesis.module.port_names():
            assert port in behavioural

    def test_synthesis_to_vhdl_behavioural_flag(self, example_spec):
        synthesis = synthesize_interlock(example_spec)
        behavioural = synthesis_to_vhdl(synthesis, behavioural=True)
        structural = synthesis_to_vhdl(synthesis, behavioural=False)
        assert "architecture rtl" in behavioural
        assert "architecture netlist" in structural
