"""Tests for the architecture description, signals, instructions, arbitration."""

import pytest
from conftest import streams_program

from repro.expr import eval_expr
from repro.pipeline import (
    Architecture,
    ArchitectureError,
    CompletionBusSpec,
    FixedPriorityArbiter,
    InstructionKind,
    PipeSpec,
    RoundRobinArbiter,
    ScoreboardSpec,
    StageRef,
    StallInput,
    alu,
    bubble,
    make_arbiter,
    store,
    wait,
)
from repro.pipeline import signals as sig
from repro.pipeline.arbitration import (
    arbitration_environment_assumptions,
    work_conserving_assumption,
)


class TestSignals:
    def test_naming_conventions_match_paper(self):
        assert sig.moe_name("long", 4) == "long.4.moe"
        assert sig.rtm_name("short", 1) == "short.1.rtm"
        assert sig.req_name("long") == "long.req"
        assert sig.gnt_name("short") == "short.gnt"
        assert sig.scoreboard_name(3) == "scb[3]"
        assert sig.bus_target_indicator("c", 5) == "c.regaddr=5"
        assert sig.stage_regaddr_indicator("long", 1, "src", 2) == "long.1.src.regaddr=2"

    def test_hdl_identifier_sanitisation(self):
        assert sig.to_hdl_identifier("long.4.moe") == "long_4_moe"
        assert sig.to_hdl_identifier("scb[3]") == "scb_3_"
        assert sig.to_hdl_identifier("c.regaddr=5") == "c_regaddr_eq_5"
        assert sig.to_hdl_identifier("1weird") .startswith("_")


class TestStructure:
    def test_stage_refs(self):
        pipe = PipeSpec(name="long", num_stages=4, completion_bus="c")
        assert pipe.issue_stage == StageRef("long", 1)
        assert pipe.completion_stage == StageRef("long", 4)
        assert [s.index for s in pipe.stages()] == [1, 2, 3, 4]
        assert pipe.stage(2).moe == "long.2.moe"
        with pytest.raises(ArchitectureError):
            pipe.stage(9)

    def test_pipe_validation(self):
        with pytest.raises(ArchitectureError):
            PipeSpec(name="p", num_stages=0)
        with pytest.raises(ArchitectureError):
            PipeSpec(name="p", num_stages=2, shunt_stages=(5,))

    def test_bus_validation(self):
        with pytest.raises(ArchitectureError):
            CompletionBusSpec(name="c", priority=())
        with pytest.raises(ArchitectureError):
            CompletionBusSpec(name="c", priority=("a", "a"))

    def test_scoreboard_validation(self):
        with pytest.raises(ArchitectureError):
            ScoreboardSpec(num_registers=0)
        assert ScoreboardSpec(num_registers=2).bit_names() == ["scb[0]", "scb[1]"]

    def test_architecture_cross_validation(self):
        pipe = PipeSpec(name="p", num_stages=2, completion_bus="c")
        bus = CompletionBusSpec(name="c", priority=("p",))
        Architecture(name="ok", pipes=[pipe], buses=[bus])
        with pytest.raises(ArchitectureError):
            Architecture(name="dup", pipes=[pipe, pipe], buses=[bus])
        with pytest.raises(ArchitectureError):
            Architecture(
                name="unknown-bus",
                pipes=[PipeSpec(name="p", num_stages=2, completion_bus="zzz")],
                buses=[],
            )
        with pytest.raises(ArchitectureError):
            Architecture(
                name="bus-pipe-mismatch",
                pipes=[PipeSpec(name="p", num_stages=2)],
                buses=[CompletionBusSpec(name="c", priority=("p",))],
            )
        with pytest.raises(ArchitectureError):
            Architecture(name="no-pipes", pipes=[], buses=[])
        with pytest.raises(ArchitectureError):
            Architecture(
                name="bad-lockstep",
                pipes=[pipe],
                buses=[bus],
                lockstep_groups=[("p",)],
            )
        with pytest.raises(ArchitectureError):
            Architecture(
                name="bad-stall-input",
                pipes=[pipe],
                buses=[bus],
                extra_stall_inputs=[StallInput(signal="x", applies_to=("ghost",))],
            )

    def test_lookups(self, example_arch):
        assert example_arch.pipe("long").num_stages == 4
        assert example_arch.bus("c").priority == ("short", "long")
        with pytest.raises(ArchitectureError):
            example_arch.pipe("ghost")
        with pytest.raises(ArchitectureError):
            example_arch.bus("ghost")
        assert example_arch.lockstep_partners("long") == ["short"]
        assert example_arch.lockstep_partners("short") == ["long"]
        assert example_arch.wait_signals_for("long") == ["op_is_WAIT"]
        assert example_arch.wait_signals_for("short") == []

    def test_signal_inventories(self, example_arch):
        assert len(example_arch.moe_signals()) == 6
        assert len(example_arch.rtm_signals()) == 6
        assert set(example_arch.grant_signals()) == {"long.gnt", "short.gnt"}
        assert set(example_arch.request_signals()) == {"long.req", "short.req"}
        assert len(example_arch.scoreboard_signals()) == 2
        assert len(example_arch.bus_target_signals()) == 2
        assert len(example_arch.issue_regaddr_signals()) == 2 * 2 * 2
        inputs = example_arch.input_signals()
        assert len(inputs) == len(set(inputs))
        assert example_arch.stage_count() == 6

    def test_default_example_matches_figure_1(self, example_arch_full):
        assert example_arch_full.stage_count() == 6
        assert [pipe.num_stages for pipe in example_arch_full.pipes] == [4, 2]
        assert example_arch_full.scoreboard.num_registers == 8

    def test_completion_stages(self, example_arch):
        assert {str(p.completion_stage) for p in example_arch.pipes} == {"long.4", "short.2"}

    def test_all_stages_deepest_first_per_pipe(self, example_arch):
        order = [str(s) for s in example_arch.all_stages()]
        assert order.index("long.4") < order.index("long.1")
        assert order.index("short.2") < order.index("short.1")

    def test_describe_and_diagram(self, example_arch):
        description = example_arch.describe()
        assert "pipe long" in description and "lock-step" in description
        diagram = example_arch.ascii_diagram()
        assert "long" in diagram and "short" in diagram and "completion buses" in diagram


class TestInstructions:
    def test_alu_requires_destination(self):
        with pytest.raises(ValueError):
            from repro.pipeline.instructions import Instruction

            Instruction(pipe="p", kind=InstructionKind.ALU)

    def test_wait_requires_cycles(self):
        with pytest.raises(ValueError):
            from repro.pipeline.instructions import Instruction

            Instruction(pipe="p", kind=InstructionKind.WAIT, wait_cycles=0)

    def test_factory_helpers(self):
        a = alu("long", dst=3, src=1)
        assert a.needs_writeback and (a.dst, a.src) == (3, 1)
        s = store("short", src=2)
        assert not s.needs_writeback and (s.dst, s.src) == (None, 2)
        w = wait("long", 2)
        assert w.kind is InstructionKind.WAIT and w.wait_cycles == 2
        b = bubble("long")
        assert b.kind is InstructionKind.BUBBLE

    def test_uids_are_unique_and_copy_renews(self):
        first, second = alu("p", dst=0), alu("p", dst=0)
        assert first.uid != second.uid
        clone = first.copy()
        assert clone.uid != first.uid

    def test_describe(self):
        text = alu("long", dst=3, src=1).describe()
        assert "long" in text and "dst=r3" in text and "src=r1" in text

    def test_program_queries(self):
        program = streams_program(long=[alu("long", dst=0), bubble("long")], short=[])
        assert program.stream_for("short") == []
        assert program.stream_for("missing") == []


class TestArbitration:
    def bus(self):
        return CompletionBusSpec(name="c", priority=("short", "long"))

    def test_fixed_priority_prefers_short(self):
        arbiter = FixedPriorityArbiter(self.bus())
        assert arbiter.grant({"short": True, "long": True}) == "short"
        assert arbiter.grant({"short": False, "long": True}) == "long"
        assert arbiter.grant({"short": False, "long": False}) is None

    def test_round_robin_rotates(self):
        arbiter = RoundRobinArbiter(self.bus())
        both = {"short": True, "long": True}
        winners = [arbiter.grant(both) for _ in range(4)]
        assert winners == ["short", "long", "short", "long"]
        arbiter.reset()
        assert arbiter.grant(both) == "short"

    def test_round_robin_skips_idle_requesters(self):
        arbiter = RoundRobinArbiter(self.bus())
        assert arbiter.grant({"short": False, "long": True}) == "long"
        assert arbiter.grant({"short": True, "long": True}) == "short"

    def test_make_arbiter(self):
        assert isinstance(make_arbiter("fixed-priority", self.bus()), FixedPriorityArbiter)
        assert isinstance(make_arbiter("round-robin", self.bus()), RoundRobinArbiter)
        with pytest.raises(ValueError):
            make_arbiter("mystery", self.bus())

    def test_environment_assumptions_hold_for_real_arbiters(self):
        bus = self.bus()
        assumptions = arbitration_environment_assumptions(bus)
        conservation = work_conserving_assumption(bus)
        for requests in (
            {"short": False, "long": False},
            {"short": True, "long": False},
            {"short": False, "long": True},
            {"short": True, "long": True},
        ):
            for arbiter in (FixedPriorityArbiter(bus), RoundRobinArbiter(bus)):
                winner = arbiter.grant(requests)
                env = {
                    "short.req": requests["short"],
                    "long.req": requests["long"],
                    "short.gnt": winner == "short",
                    "long.gnt": winner == "long",
                }
                for assumption in assumptions:
                    assert eval_expr(assumption, env)
                assert eval_expr(conservation, env)
