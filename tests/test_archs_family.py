"""Tests for the architecture library and the parametric family generator."""

import pytest

from repro.archs import (
    FamilyConfig,
    FamilyError,
    SHOWCASE_CONFIGS,
    available_architectures,
    generate_family,
    load_architecture,
    register_architecture,
    unregister_architecture,
)
from repro.pipeline.structure import Architecture
from repro.spec import (
    build_functional_spec,
    check_all_properties,
    check_maximality,
    symbolic_most_liberal,
)


class TestLibrary:
    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(KeyError) as excinfo:
            load_architecture("no-such-architecture")
        message = str(excinfo.value)
        assert "no-such-architecture" in message
        assert "dac2002-example" in message
        assert "fam-r<registers>" in message

    def test_malformed_family_name_raises(self):
        with pytest.raises(KeyError) as excinfo:
            load_architecture("fam-bogus")
        assert "malformed family architecture name" in str(excinfo.value)

    def test_every_registered_factory_instantiates(self):
        names = available_architectures()
        assert len(names) >= 6  # three hand-written + the showcase members
        for name in names:
            architecture = load_architecture(name)
            assert isinstance(architecture, Architecture)
            assert architecture.pipes

    def test_showcase_members_are_listed(self):
        names = available_architectures()
        for config in SHOWCASE_CONFIGS:
            assert config.name in names

    def test_register_and_unregister(self):
        name = "test-registered-arch"
        register_architecture(name, lambda: load_architecture("risc5"))
        try:
            assert name in available_architectures()
            assert isinstance(load_architecture(name), Architecture)
            with pytest.raises(ValueError):
                register_architecture(name, lambda: load_architecture("risc5"))
        finally:
            unregister_architecture(name)
        assert name not in available_architectures()
        with pytest.raises(KeyError):
            unregister_architecture(name)

    def test_family_prefix_is_reserved(self):
        with pytest.raises(ValueError):
            register_architecture(
                "fam-r2w1d3s1-bypass", lambda: load_architecture("risc5")
            )


class TestFamilyConfig:
    def test_name_round_trip(self):
        for config in generate_family(
            registers=(2, 4),
            widths=(1, 2),
            depths=(3, 5),
            styles=("bypass", "blocking"),
            loadstore=(False, True),
            waits=(False, True),
        ):
            assert FamilyConfig.from_name(config.name) == config

    def test_dict_round_trip(self):
        config = FamilyConfig(
            num_registers=8,
            issue_width=3,
            depth=6,
            scoreboard_style="blocking",
            with_loadstore=True,
            with_wait=True,
        )
        assert FamilyConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FamilyError):
            FamilyConfig.from_dict({"num_registers": 2, "turbo": True})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(FamilyError):
            FamilyConfig(num_registers=0)
        with pytest.raises(FamilyError):
            FamilyConfig(depth=1)
        with pytest.raises(FamilyError):
            FamilyConfig(scoreboard_style="psychic")

    def test_pipe_depths_staggered_and_floored(self):
        config = FamilyConfig(issue_width=4, depth=5, latency_step=2)
        assert config.pipe_depths() == [5, 3, 2, 2]

    def test_build_structure(self):
        config = FamilyConfig(
            num_registers=4,
            issue_width=2,
            depth=4,
            scoreboard_style="bypass",
            with_loadstore=True,
            with_wait=True,
        )
        architecture = config.build()
        assert architecture.name == config.name
        assert len(architecture.pipes) == 3  # two execution pipes + load/store
        # Shallower pipe wins arbitration, as in the paper.
        assert architecture.buses[0].priority == ("p1", "p0")
        # The load/store pipe never competes for the completion bus.
        assert architecture.pipe("ls").completion_bus is None
        assert architecture.scoreboard.bypass_buses == ("c",)
        assert architecture.lockstep_groups == [("p0", "p1", "ls")]
        assert architecture.wait_signals_for("p0") == ["op_is_WAIT"]

    def test_blocking_scoreboard_has_no_bypass(self):
        architecture = FamilyConfig(scoreboard_style="blocking").build()
        assert architecture.scoreboard.bypass_buses == ()


class TestFamilyGeneration:
    def test_default_grid_size_and_uniqueness(self):
        configs = generate_family()
        names = [config.name for config in configs]
        assert len(configs) == 24
        assert len(set(names)) == len(names)

    def test_width_one_latency_step_collisions_deduplicated(self):
        configs = generate_family(
            registers=(2,),
            widths=(1,),
            depths=(3,),
            latency_steps=(0, 1, 2),
            styles=("bypass",),
        )
        # latency_step is irrelevant at width 1: the three parameter
        # tuples build identical machines, so only one member survives.
        assert len(configs) == 1
        assert configs[0].latency_step == 0

    def test_structurally_distinct_steps_are_kept(self):
        configs = generate_family(
            registers=(2,),
            widths=(2,),
            depths=(4,),
            latency_steps=(0, 1, 2),
            styles=("bypass",),
        )
        # At width 2 each step yields different pipe depths: [4,4]/[4,3]/[4,2].
        assert len(configs) == 3

    def test_generated_configs_derive_and_satisfy_property_3(self):
        # A structurally diverse small slice of the family: both styles,
        # both widths, with and without the load/store pipe.
        configs = [
            FamilyConfig(num_registers=2, issue_width=1, depth=3, scoreboard_style="bypass"),
            FamilyConfig(num_registers=2, issue_width=2, depth=3, scoreboard_style="blocking"),
            FamilyConfig(
                num_registers=2,
                issue_width=2,
                depth=4,
                scoreboard_style="bypass",
                with_loadstore=True,
                with_wait=True,
            ),
        ]
        for config in configs:
            spec = build_functional_spec(config.build())
            report = check_all_properties(spec)
            assert report.all_hold(), f"{config.name}:\n{report.describe()}"
            derivation = symbolic_most_liberal(spec)
            assert check_maximality(spec, derivation).holds, config.name
