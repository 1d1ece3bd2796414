"""Tests for VCD export of simulation traces (repro.pipeline.vcd)."""

import io
import re

import pytest

from repro.pipeline import SimulationTrace, reference_interlock, simulate, write_vcd, write_vcd_file
from repro.pipeline.vcd import _identifier_for, _sanitise
from repro.workloads import WorkloadGenerator, WorkloadProfile


def trace_to_vcd(trace):
    """Render ``trace`` as VCD text with :func:`write_vcd`."""
    buffer = io.StringIO()
    write_vcd(trace, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def small_trace(example_arch, example_spec):
    program = WorkloadGenerator(example_arch, seed=1).generate(WorkloadProfile(length=20))
    return simulate(example_arch, reference_interlock(example_spec), program)


@pytest.fixture(scope="module")
def vcd_text(small_trace):
    return trace_to_vcd(small_trace)


class TestIdentifierAllocation:
    def test_identifiers_are_unique(self):
        identifiers = [_identifier_for(i) for i in range(500)]
        assert len(set(identifiers)) == 500

    def test_identifiers_are_printable_and_short(self):
        for index in (0, 93, 94, 500, 5000):
            identifier = _identifier_for(index)
            assert identifier.isascii()
            assert " " not in identifier
            assert 1 <= len(identifier) <= 3

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            _identifier_for(-1)


class TestVcdStructure:
    def test_header_sections_present(self, vcd_text):
        for keyword in ("$date", "$version", "$timescale", "$enddefinitions", "$dumpvars"):
            assert keyword in vcd_text

    def test_scopes_present(self, vcd_text):
        assert "$scope module inputs $end" in vcd_text
        assert "$scope module moe $end" in vcd_text
        assert "$scope module occupancy $end" in vcd_text
        assert vcd_text.count("$scope") == vcd_text.count("$upscope")

    def test_one_var_per_signal(self, vcd_text, small_trace):
        first = small_trace.record(0)
        expected = len(first.inputs) + len(first.moe) + len(first.occupancy)
        assert vcd_text.count("$var wire 1 ") == expected

    def test_var_names_have_no_whitespace_or_brackets(self, vcd_text):
        for line in vcd_text.splitlines():
            if line.startswith("$var"):
                name = line.split()[4]
                assert "[" not in name and "]" not in name

    def test_timestamps_are_monotonic(self, vcd_text):
        stamps = [int(match) for match in re.findall(r"^#(\d+)$", vcd_text, re.MULTILINE)]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0

    def test_final_timestamp_extends_past_last_cycle(self, vcd_text, small_trace):
        stamps = [int(match) for match in re.findall(r"^#(\d+)$", vcd_text, re.MULTILINE)]
        assert stamps[-1] == small_trace.num_cycles()

    def test_initial_dump_covers_every_signal(self, vcd_text, small_trace):
        first_block = vcd_text.split("$dumpvars")[1].split("$end")[0]
        changes = [line for line in first_block.strip().splitlines() if line]
        first = small_trace.record(0)
        assert len(changes) == len(first.inputs) + len(first.moe) + len(first.occupancy)

    def test_value_changes_use_binary_digits(self, vcd_text):
        body = vcd_text.split("$enddefinitions $end")[1]
        for line in body.strip().splitlines():
            if line.startswith("#") or line.startswith("$"):
                continue
            assert line[0] in "01"

    def test_fixed_header_values(self, vcd_text):
        assert "$date generated by repro.pipeline.vcd $end" in vcd_text
        assert "$timescale 1 ns $end" in vcd_text


class TestVcdChangeSemantics:
    def test_only_changes_after_first_cycle(self, vcd_text, small_trace):
        # Count value-change lines; they must not exceed signals × cycles and
        # must be fewer than a full dump every cycle (the trace stalls, so
        # most signals hold their value across at least one boundary).
        body = vcd_text.split("$enddefinitions $end")[1]
        change_lines = [
            line for line in body.strip().splitlines()
            if line and not line.startswith("#") and not line.startswith("$")
        ]
        first = small_trace.record(0)
        num_signals = len(first.inputs) + len(first.moe) + len(first.occupancy)
        assert len(change_lines) <= num_signals * small_trace.num_cycles()
        assert len(change_lines) < num_signals * small_trace.num_cycles()


def _changes_by_time(vcd_text):
    """Per VCD time, the ``((scope, name), value)`` changes written at it."""
    header, body = vcd_text.split("$enddefinitions $end")
    names, scope = {}, None
    for words in map(str.split, header.splitlines()):
        if words[:2] == ["$scope", "module"]:
            scope = words[2]
        elif words[:1] == ["$var"]:
            names[words[3]] = (scope, words[4])
    changes, time = {}, None
    for token in body.split():
        if token.startswith("#"):
            time = int(token[1:])
            changes[time] = []
        elif token[0] in "01":
            changes[time].append((names[token[1:]], token[0] == "1"))
    return changes


class TestVcdReplaysTheRecords:
    def test_every_cycle_reads_back_as_its_record(self, vcd_text, small_trace):
        changes = _changes_by_time(vcd_text)
        assert max(changes) == small_trace.num_cycles()
        state = {}
        for cycle in range(small_trace.num_cycles()):
            state.update(changes.get(cycle, []))
            record = small_trace.record(cycle)
            expected = {
                ("inputs", _sanitise(name)): value for name, value in record.inputs.items()
            }
            expected.update({("moe", _sanitise(name)): value for name, value in record.moe.items()})
            expected.update(
                {
                    ("occupancy", _sanitise(f"busy.{name}")): uid is not None
                    for name, uid in record.occupancy.items()
                }
            )
            assert state == expected, f"cycle {cycle}"


class TestFileOutput:
    def test_write_vcd_file(self, tmp_path, small_trace):
        path = tmp_path / "trace.vcd"
        write_vcd_file(small_trace, str(path))
        content = path.read_text(encoding="ascii")
        assert "$enddefinitions $end" in content

    def test_empty_trace_rejected(self):
        empty = SimulationTrace(architecture_name="none", interlock_name="none")
        with pytest.raises(ValueError):
            trace_to_vcd(empty)
