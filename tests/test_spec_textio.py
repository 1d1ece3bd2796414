"""Tests for the textual specification format (repro.spec.textio)."""

import pytest

from repro.expr import FALSE, parse_expr
from repro.spec import (
    FunctionalSpec,
    SpecFormatError,
    StallClause,
    dumps_spec,
    load_spec_file,
    loads_spec,
    save_spec_file,
)
from repro.spec.derivation import derivation_order
from repro.symbolic import SymbolicContext

MINIMAL = """
# a two-stage single pipe
spec tiny

inputs:
    req gnt rtm

stage p.2.moe "completion":
    stall when req & !gnt

stage p.1.moe:
    stall when rtm & !p.2.moe
"""


def _same_conditions(spec_a, spec_b):
    """Are the two specs' stall conditions the same functions, flag by flag?"""
    context = SymbolicContext(derivation_order(spec_a))
    return spec_a.moe_flags() == spec_b.moe_flags() and all(
        context.lift(spec_a.condition_for(moe)).equivalent(
            context.lift(spec_b.condition_for(moe))
        )
        for moe in spec_a.moe_flags()
    )


class TestLoadsSpec:
    def test_minimal_spec_parses(self):
        spec = loads_spec(MINIMAL)
        assert spec.name == "tiny"
        assert spec.moe_flags() == ["p.2.moe", "p.1.moe"]
        assert spec.inputs == ["req", "gnt", "rtm"]
        assert spec.clause_for("p.2.moe").label == "completion"
        assert spec.condition_for("p.2.moe") == parse_expr("req & !gnt")

    def test_multiple_stall_when_lines_are_disjoined(self):
        spec = loads_spec(
            """
            spec multi
            inputs:
                a b c
            stage s.1.moe:
                stall when a
                stall when b & c
            """
        )
        assert spec.condition_for("s.1.moe") == parse_expr("a | b & c")

    def test_comments_and_blank_lines_ignored(self):
        spec = loads_spec(
            """
            # header comment
            spec commented   # not part of the name? no: comments strip first

            inputs:
                x    # trailing comment
            stage s.1.moe:
                stall when x  # stall comment
            """
        )
        assert spec.name == "commented"
        assert spec.inputs == ["x"]

    def test_stage_without_stalls_never_stalls(self):
        spec = loads_spec(
            """
            spec lazy
            inputs:
                a
            stage s.2.moe:
                stall when a
            stage s.1.moe:
            """
        )
        assert spec.condition_for("s.1.moe") == FALSE

    def test_missing_spec_line_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("inputs:\n  a\nstage s.1.moe:\n  stall when a\n")

    def test_duplicate_spec_line_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\nspec b\nstage s.1.moe:\n  stall when True\n")

    def test_stall_outside_stage_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\ninputs:\n  x\nstall when x\n")

    def test_unparsable_condition_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\ninputs:\n  x\nstage s.1.moe:\n  stall when x &&& y\n")

    def test_no_stages_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\ninputs:\n  x\n")

    def test_undeclared_signal_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\ninputs:\n  x\nstage s.1.moe:\n  stall when y\n")

    def test_gibberish_line_rejected(self):
        with pytest.raises(SpecFormatError):
            loads_spec("spec a\nwhat is this line\n")


class TestRoundTrip:
    def test_minimal_round_trip(self):
        spec = loads_spec(MINIMAL)
        again = loads_spec(dumps_spec(spec))
        assert again.name == spec.name
        assert again.moe_flags() == spec.moe_flags()
        assert again.inputs == spec.inputs
        for moe in spec.moe_flags():
            assert again.condition_for(moe) == spec.condition_for(moe)

    def test_example_architecture_round_trip(self, example_spec):
        again = loads_spec(dumps_spec(example_spec))
        assert again.moe_flags() == example_spec.moe_flags()
        assert _same_conditions(again, example_spec)

    def test_firepath_round_trip(self, firepath_spec):
        again = loads_spec(dumps_spec(firepath_spec))
        assert again.moe_flags() == firepath_spec.moe_flags()
        assert _same_conditions(again, firepath_spec)

    def test_never_stalling_stage_round_trips(self):
        spec = FunctionalSpec(
            name="lazy",
            clauses=[
                StallClause(moe="s.2.moe", condition=parse_expr("a")),
                StallClause(moe="s.1.moe", condition=FALSE),
            ],
            inputs=["a"],
        )
        again = loads_spec(dumps_spec(spec))
        assert again.condition_for("s.1.moe") == FALSE

    def test_labels_survive_round_trip(self):
        spec = loads_spec(MINIMAL)
        again = loads_spec(dumps_spec(spec))
        assert again.clause_for("p.2.moe").label == "completion"


class TestFileIo:
    def test_save_and_load_file(self, tmp_path, example_spec):
        path = tmp_path / "example.spec"
        save_spec_file(example_spec, str(path))
        loaded = load_spec_file(str(path))
        assert loaded.moe_flags() == example_spec.moe_flags()
        assert _same_conditions(loaded, example_spec)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec_file(str(tmp_path / "missing.spec"))
