"""Tests for the command-line front end (repro.cli)."""

import io
import re

import pytest

from repro.archs import load_architecture
from repro.cli import build_parser, main
from repro.spec import build_functional_spec, loads_spec


def run_cli(*argv):
    """Invoke the CLI, returning (exit_code, captured_stdout)."""
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


SPEC_TEXT = """
spec cli-test
inputs:
    req gnt rtm
stage p.2.moe:
    stall when req & !gnt
stage p.1.moe:
    stall when rtm & !p.2.moe
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "cli-test.spec"
    path.write_text(SPEC_TEXT, encoding="utf-8")
    return str(path)


class TestParser:
    def test_every_command_registered(self):
        parser = build_parser()
        actions = [a for a in parser._subparsers._group_actions][0]
        commands = set(actions.choices)
        assert {
            "list-archs", "show-arch", "spec", "derive", "check-properties",
            "assertions", "synth", "check", "simulate",
        } <= commands

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestArchitectureCommands:
    def test_list_archs(self):
        code, output = run_cli("list-archs")
        assert code == 0
        assert "dac2002-example" in output
        assert "firepath-like" in output
        assert "risc5" in output

    def test_show_arch(self):
        code, output = run_cli("show-arch", "--arch", "dac2002-example")
        assert code == 0
        assert "long" in output and "short" in output


class TestSpecCommands:
    def test_functional_spec_text(self):
        code, output = run_cli("spec", "--arch", "risc5")
        assert code == 0
        assert "->" in output

    def test_performance_spec(self):
        code, output = run_cli("spec", "--arch", "risc5", "--kind", "performance")
        assert code == 0
        assert "->" in output

    def test_combined_spec_unicode(self):
        code, output = run_cli(
            "spec", "--arch", "risc5", "--kind", "combined", "--format", "unicode"
        )
        assert code == 0
        assert "↔" in output

    def test_specfile_export_round_trips(self):
        code, output = run_cli("spec", "--arch", "risc5", "--format", "specfile")
        assert code == 0
        spec = loads_spec(output)
        assert spec.name == "risc5"

    def test_specfile_export_of_performance_spec_rejected(self):
        code, _ = run_cli(
            "spec", "--arch", "risc5", "--kind", "performance", "--format", "specfile"
        )
        assert code == 2

    def test_spec_from_file(self, spec_file):
        code, output = run_cli("spec", "--spec-file", spec_file)
        assert code == 0
        assert "p.2.moe" in output

    def test_derive_prints_closed_forms(self, spec_file):
        code, output = run_cli("derive", "--spec-file", spec_file)
        assert code == 0
        assert "p.1.moe =" in output

    def test_check_properties_pass(self, spec_file):
        code, output = run_cli("check-properties", "--spec-file", spec_file)
        assert code == 0
        assert "holds" in output or "passed" in output or "ok" in output.lower()

    def test_missing_spec_file_reports_error(self, tmp_path):
        code, _ = run_cli("spec", "--spec-file", str(tmp_path / "nope.spec"))
        assert code == 2


class TestGenerationCommands:
    def test_sva_assertions(self, spec_file):
        code, output = run_cli("assertions", "--spec-file", spec_file)
        assert code == 0
        assert "assert property" in output
        assert "module pipeline_spec_checker" in output

    def test_psl_assertions(self, spec_file):
        code, output = run_cli("assertions", "--spec-file", spec_file, "--language", "psl")
        assert code == 0
        assert "vunit" in output

    def test_behavioural_verilog(self, spec_file):
        code, output = run_cli("synth", "--spec-file", spec_file)
        assert code == 0
        assert "module" in output and "assign" in output

    def test_netlist_vhdl(self, spec_file):
        code, output = run_cli(
            "synth", "--spec-file", spec_file, "--language", "vhdl", "--style", "netlist"
        )
        assert code == 0
        assert "architecture netlist" in output

    def test_behavioural_vhdl(self, spec_file):
        code, output = run_cli("synth", "--spec-file", spec_file, "--language", "vhdl")
        assert code == 0
        assert "architecture rtl" in output


class TestCheckAndSimulate:
    def test_check_derived_interlock_passes(self, spec_file):
        code, output = run_cli("check", "--spec-file", spec_file, "--backend", "sat")
        assert code == 0
        assert "proved" in output

    def test_check_conservative_variant_of_example(self):
        code, output = run_cli(
            "check", "--arch", "dac2002-example", "--implementation", "conservative"
        )
        # The conservative variant is functionally safe but not maximum
        # performance, so the command reports failures and exits non-zero.
        assert code == 1
        assert "FAILED" in output

    def test_check_prints_one_verdict_per_flag(self):
        # A refuted flag (the conservative variant fails long.1.moe's
        # equivalence) must not end a report: the flags after it are
        # decided and printed too.
        _, output = run_cli(
            "check", "--arch", "dac2002-example", "--implementation", "conservative"
        )
        flags = build_functional_spec(load_architecture("dac2002-example")).moe_flags()
        for kind in ("functional", "performance", "equivalence"):
            verdicts = re.findall(rf"^  {kind}::.* \[(\S+)\]: (\w+)$", output, re.MULTILINE)
            assert [flag for flag, _ in verdicts] == flags
        assert {verdict for _, verdict in verdicts} == {"proved", "FAILED"}

    def test_conservative_requires_architecture(self, spec_file):
        code, _ = run_cli(
            "check", "--spec-file", spec_file, "--implementation", "conservative"
        )
        assert code == 2

    def test_simulate_risc5(self, tmp_path):
        vcd_path = tmp_path / "run.vcd"
        code, output = run_cli(
            "simulate", "--arch", "risc5", "--length", "20", "--seed", "3",
            "--coverage", "--vcd", str(vcd_path),
        )
        assert code == 0
        assert "Assertion monitor report" in output
        assert "coverage" in output.lower()
        assert vcd_path.exists()
