"""Intervention specs: parsing, round-trips, validation, layers."""

from typing import ClassVar

import pytest

from repro.whatif.spec import (
    INTERVENTION_TYPES,
    AcceleratedAdoption,
    DeployNAT64,
    DualStackProvider,
    EnableISPv6,
    HappyEyeballsTimerChange,
    Intervention,
    PolicyBlockCountry,
    Scenario,
    as_scenario,
    default_sweep_grid,
    parse_intervention,
    parse_scenario,
)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ispv6", EnableISPv6()),
            ("ispv6:C,E", EnableISPv6(residences=("C", "E"))),
            ("dualstack:Amazon", DualStackProvider(provider="Amazon")),
            ("nat64:DE", DeployNAT64(country="DE")),
            ("block:CN", PolicyBlockCountry(country="CN", block_rate=1.0)),
            ("block:CN@0.6", PolicyBlockCountry(country="CN", block_rate=0.6)),
            ("accelerate:2.5", AcceleratedAdoption(multiplier=2.5)),
            ("hetimer:300", HappyEyeballsTimerChange(resolution_delay_ms=300.0)),
            (
                "hetimer:300,100",
                HappyEyeballsTimerChange(
                    resolution_delay_ms=300.0, attempt_delay_ms=100.0
                ),
            ),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_intervention(text) == expected

    def test_every_kind_round_trips(self):
        for scenario in default_sweep_grid():
            assert parse_scenario(scenario.spec()) == scenario
        assert set(INTERVENTION_TYPES) == {
            "ispv6", "dualstack", "nat64", "block", "accelerate", "hetimer"
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown intervention kind"):
            parse_intervention("teleport:DE")

    def test_bad_numeric_arg_rejected(self):
        with pytest.raises(ValueError, match="bad intervention spec"):
            parse_intervention("accelerate:soon")

    def test_composed_scenario(self):
        scenario = parse_scenario("nat64:DE+accelerate:2")
        assert scenario.spec() == "nat64:DE+accelerate:2"
        assert scenario.layers() == frozenset({"observatory"})
        assert len(scenario.interventions) == 2

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("  ")
        with pytest.raises(ValueError):
            Scenario(())


class TestValidation:
    def test_unknown_residence(self):
        with pytest.raises(ValueError, match="unknown residences"):
            EnableISPv6(residences=("Z",))

    def test_unknown_provider(self):
        with pytest.raises(ValueError, match="unknown provider"):
            DualStackProvider(provider="Initech")

    def test_unknown_country(self):
        with pytest.raises(ValueError, match="no vantage in country"):
            DeployNAT64(country="XX")

    def test_block_rate_bounds(self):
        with pytest.raises(ValueError):
            PolicyBlockCountry(country="CN", block_rate=1.5)

    def test_multiplier_positive(self):
        with pytest.raises(ValueError):
            AcceleratedAdoption(multiplier=0.0)


class TestLayers:
    def test_layer_declarations(self):
        assert EnableISPv6().LAYERS == frozenset({"traffic"})
        assert DualStackProvider(provider="Amazon").LAYERS == frozenset(
            {"traffic", "census"}
        )
        assert DeployNAT64(country="JP").LAYERS == frozenset({"observatory"})
        assert HappyEyeballsTimerChange().LAYERS == frozenset({"traffic"})

    def test_undeclared_layers_rejected_at_class_creation(self):
        with pytest.raises(TypeError, match="ForgotLayers must declare a non-empty LAYERS"):
            class ForgotLayers(Intervention):
                KIND = "forgot"

    @pytest.mark.parametrize(
        "layers", [frozenset(), frozenset({"warp_drive"}), frozenset({"traffic", "cloud"})],
        ids=["empty", "unknown", "not-perturbable"],
    )
    def test_bad_layers_rejected_at_class_creation(self, layers):
        with pytest.raises(TypeError, match="BadLayers must declare a non-empty LAYERS"):
            class BadLayers(Intervention):
                KIND = "bad"
                LAYERS: ClassVar[frozenset[str]] = layers

    def test_as_scenario_coercions(self):
        single = as_scenario("nat64:DE")
        assert as_scenario(single) is single
        assert as_scenario(DeployNAT64(country="DE")) == single
        assert as_scenario([DeployNAT64(country="DE")]) == single


class TestTransforms:
    def test_ispv6_makes_every_device_capable(self):
        from repro.traffic.residences import build_paper_residences

        profiles = EnableISPv6(residences=("C",)).transform_profiles(
            build_paper_residences()
        )
        by_name = {p.name: p for p in profiles}
        assert all(capable for _, capable, _ in by_name["C"].device_specs)
        # untouched residences keep their broken devices
        assert any(not capable for _, capable, _ in by_name["E"].device_specs)

    def test_dualstack_transforms_matching_catalog_services(self):
        from repro.traffic.apps import build_service_catalog

        catalog = DualStackProvider(provider="Amazon").transform_catalog(
            build_service_catalog()
        )
        amazon = [s for s in catalog if "amazon" in s.name.lower()]
        assert amazon and all(s.ipv6_support == 1.0 for s in amazon)

    def test_nat64_transforms_only_the_country(self):
        from repro.observatory.vantage import NetworkPolicy, build_vantage_fleet

        fleet = DeployNAT64(country="US").transform_fleet(build_vantage_fleet())
        for vantage in fleet:
            if vantage.country == "US":
                assert vantage.policy is NetworkPolicy.NAT64
            else:
                assert vantage.policy is not NetworkPolicy.NAT64 or vantage.country in (
                    "JP", "IN",  # NAT64 archetypes in the default fleet
                )

    def test_accelerate_caps_drift_at_one(self):
        from repro.observatory.rounds import ObservatoryConfig

        config = AcceleratedAdoption(multiplier=100.0).transform_observatory_config(
            ObservatoryConfig()
        )
        assert config.adoption_drift == 1.0

    def test_hetimer_overrides_resolution_delay(self):
        config = HappyEyeballsTimerChange(
            resolution_delay_ms=300.0
        ).transform_he_config(None)
        assert config.resolution_delay == pytest.approx(0.3)
        assert config.attempt_delay == pytest.approx(0.25)  # RFC default kept


class TestDefaultGrid:
    def test_grid_covers_every_kind(self):
        grid = default_sweep_grid()
        kinds = {
            intervention.KIND
            for scenario in grid
            for intervention in scenario.interventions
        }
        assert kinds == set(INTERVENTION_TYPES)
        specs = [scenario.spec() for scenario in grid]
        assert len(specs) == len(set(specs))
