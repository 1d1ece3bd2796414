"""Tests for the minimality of derived covers and VHDL emission (repro.synth.vhdl)."""

from itertools import combinations, product

import pytest

from repro.expr import Var, eval_expr, parse_expr
from repro.spec import FunctionalSpec, StallClause, symbolic_most_liberal
from repro.synth import (
    behavioural_vhdl,
    module_to_vhdl,
    synthesis_to_verilog,
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


def literal_count(expr):
    """Variable occurrences in an expression."""
    return sum(isinstance(node, Var) for node in expr.walk())


def minimum_cover_literals(expr):
    """Fewest literals of any sum-of-products cover of ``expr``, by brute force.

    A cube is a tuple of ``None`` (variable absent) or the literal's value
    per variable.  Only prime implicants need trying: widening a cube of a
    cover to a prime that contains it never adds literals.
    """
    names = sorted(expr.variables())
    points = list(product((False, True), repeat=len(names)))
    onset = {point for point in points if eval_expr(expr, dict(zip(names, point)))}
    implicants = {}
    for cube in product((None, False, True), repeat=len(names)):
        covered = frozenset(
            point
            for point in points
            if all(value is None or value == bit for value, bit in zip(cube, point))
        )
        if covered <= onset:
            implicants[cube] = covered
    primes = [
        cube
        for cube, covered in implicants.items()
        if not any(covered < other for other in implicants.values())
    ]
    return min(
        sum(value is not None for cube in chosen for value in cube)
        for size in range(len(primes) + 1)
        for chosen in combinations(primes, size)
        if set().union(*(implicants[cube] for cube in chosen)) == onset
    )


class TestDerivedCovers:
    def test_derived_covers_need_no_further_minimisation(self, redundant_spec):
        # The stall conditions carry duplicated and absorbed terms; the
        # materialized ISOP covers must already be as small as an exact
        # two-level minimisation of the same functions.
        derivation = symbolic_most_liberal(redundant_spec)
        for moe, cover in derivation.moe_expressions.items():
            assert literal_count(cover) <= minimum_cover_literals(cover), moe


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
        structural = synthesis_to_vhdl(synthesis)
        assert "architecture rtl" in behavioural
        assert "architecture netlist" in structural
        for port in synthesis.module.port_names():
            assert port in behavioural and port in structural

    def test_behavioural_is_not_an_option(self, example_spec):
        # The behavioural text comes from behavioural_vhdl/behavioural_verilog.
        synthesis = synthesize_interlock(example_spec)
        with pytest.raises(TypeError):
            synthesis_to_vhdl(synthesis, behavioural=True)
        with pytest.raises(TypeError):
            synthesis_to_verilog(synthesis, behavioural=True)
