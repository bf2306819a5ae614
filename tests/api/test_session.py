"""Tests for the Study session: config, laziness, memoization."""

import pytest

from repro.api import Study, StudyConfig
from repro.api import session as session_module
from repro.datasets import build_residence_study
from repro.telemetry import counts


class TestStudyConfig:
    def test_defaults_are_bench_scale(self):
        config = StudyConfig()
        assert config.days == 154
        assert config.sites == 4000
        assert config.seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(days=0)
        with pytest.raises(ValueError):
            StudyConfig(sites=0)
        with pytest.raises(ValueError):
            StudyConfig(link_clicks=-1)

    def test_residences_normalized(self):
        config = StudyConfig(residences=("E", "A"))
        assert config.residences == ("A", "E")

    def test_replace_revalidates(self):
        config = StudyConfig(days=7)
        assert config.replace(days=9).days == 9
        with pytest.raises(ValueError):
            config.replace(days=-1)

    def test_hashable_and_equal(self):
        assert StudyConfig(days=7) == StudyConfig(days=7)
        assert len({StudyConfig(days=7), StudyConfig(days=7)}) == 1

    def test_kwargs_constructor(self):
        study = Study(days=7, seed=3)
        assert study.config == StudyConfig(days=7, seed=3)


class TestLazyMemoizedBuilds:
    def test_construction_builds_nothing(self):
        before = counts("builds_total")
        Study(days=200, sites=50_000, seed=12345)  # huge scale: must stay lazy
        assert counts("builds_total") == before

    def test_traffic_built_once_across_instances(self):
        config = StudyConfig(days=3, seed=9001, residences=("A",))
        before = counts("builds_total")["traffic"]
        first = Study(config).traffic
        second = Study(config).traffic
        assert first is second
        assert counts("builds_total")["traffic"] - before == 1

    def test_different_config_builds_again(self):
        before = counts("builds_total")["traffic"]
        Study(days=3, seed=9002, residences=("A",)).traffic
        Study(days=3, seed=9003, residences=("A",)).traffic
        assert counts("builds_total")["traffic"] - before == 2

    def test_census_and_derived_layers_built_once(self):
        config = StudyConfig(sites=120, seed=9004)
        before = counts("builds_total")
        for _ in range(2):
            study = Study(config)
            study.census
            study.cloud
            study.dependencies
        assert counts("builds_total")["census"] - before["census"] == 1
        assert counts("builds_total")["cloud"] - before["cloud"] == 1
        assert counts("builds_total")["dependencies"] - before["dependencies"] == 1

    def test_residence_subset_flows_through(self):
        study = Study(days=3, seed=9001, residences=("A",))
        assert sorted(study.traffic.datasets) == ["A"]


class TestCacheRegistry:
    def test_clear_caches_empties_every_registered_cache(self):
        config = StudyConfig(days=3, seed=9009, residences=("A",))
        traffic = Study(config).traffic
        assert session_module._CACHE[("traffic", Study(config).key("traffic"))] is traffic
        session_module.clear_caches()
        assert session_module._CACHE == {}

    def test_prime_caches_rejects_unknown_layer(self):
        with pytest.raises(ValueError, match="unknown layer"):
            session_module.prime_caches({"warp": {}})

    def test_prime_caches_seeds_entries(self):
        config = StudyConfig(days=3, seed=9010, residences=("A",))
        traffic = build_residence_study(num_days=3, seed=9010, residences=("A",))
        before = counts("builds_total")["traffic"]
        session_module.prime_caches(
            {"traffic": {Study(config).key("traffic"): traffic}}
        )
        assert Study(config).traffic is traffic
        assert counts("builds_total")["traffic"] == before


class TestFromPrebuilt:
    def test_run_returns_results_in_order(self):
        study = Study(days=3, seed=9005, residences=("A",))
        results = study.run(["table1", "fig1"])
        assert [r.name for r in results] == ["table1", "fig1"]


#: A config the key tests only derive keys for (nothing is built).
KEYED = StudyConfig(
    days=3, sites=120, seed=9011, residences=("A",), probe_targets=40,
    probe_interval_days=2, whatif_scenarios=("nat64:DE",),
)


class TestLayerKeys:
    def test_each_layer_key_is_pinned(self):
        """Warehouse entries are addressed by these tuples: traffic,
        census, observatory, whatif and sentinel keep their historical
        shape, so existing warehouses keep hitting."""
        traffic = ("traffic", 3, 9011, ("A",))
        census = ("census", 120, 9011, 5)
        observatory = ("observatory", census, 3, 40, 2)
        study = Study(KEYED)
        assert {name: study.key(name) for name in session_module.LAYER_GRAPH} == {
            "traffic": traffic,
            "census": census,
            "cloud": ("cloud", census),
            "dependencies": ("dependencies", census),
            "observatory": observatory,
            "whatif": ("whatif", traffic, census, observatory, ("nat64:DE",)),
            "sentinel": ("sentinel", traffic, census, observatory),
        }

    @pytest.mark.parametrize(
        ("spec", "changed"),
        [
            ("nat64:US", {"observatory", "whatif", "sentinel"}),
            ("hetimer:300", {"traffic", "whatif", "sentinel"}),
            ("dualstack:Amazon", set(session_module.LAYER_GRAPH)),
        ],
    )
    def test_overlay_keys_cascade_through_deps(self, spec, changed):
        from repro.whatif import OverlayStudy

        config = KEYED.replace(whatif_scenarios=None)
        baseline, overlay = Study(config), OverlayStudy(config, spec)
        assert {
            name
            for name in session_module.LAYER_GRAPH
            if overlay.key(name) != baseline.key(name)
        } == changed
