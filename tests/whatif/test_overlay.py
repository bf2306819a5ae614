"""OverlayStudy: perturbed layers rebuild, untouched layers cache-hit.

The cache-reuse accounting tests assert on ``builds_total`` deltas --
the same proof the session memoization tests use -- so "reuses the
baseline" means *zero* rebuilds of untouched layers, not "was probably
fast".
"""

import dataclasses
from typing import ClassVar

import numpy as np
import pytest

from repro.api import Study, StudyConfig
from repro.telemetry import counts
from repro.whatif import OverlayStudy
from repro.whatif.spec import Intervention

#: One tiny world private to this module: the seed differs from the
#: other whatif test modules so the exact builds_total accounting below
#: cannot be satisfied by overlays another module already cached.
SMALL = StudyConfig(
    days=5, sites=110, seed=13, probe_targets=50, probe_interval_days=2,
)


@pytest.fixture(scope="module")
def baseline():
    study = Study(SMALL)
    study.traffic, study.census, study.observatory  # warm every layer
    return study


def _deltas(before):
    return counts("builds_total") - before


class TestCacheReuseAccounting:
    def test_observatory_only_overlay_rebuilds_zero_traffic_census(self, baseline):
        before = counts("builds_total")
        overlay = OverlayStudy(baseline, "nat64:US")
        overlay.observatory
        overlay.traffic  # untouched layer: baseline cache hit
        assert _deltas(before) == {"whatif:observatory": 1}

    def test_untouched_layers_are_the_baseline_objects(self, baseline):
        overlay = OverlayStudy(baseline, "block:CN@0.5")
        assert overlay.traffic is baseline.traffic
        assert overlay.census is baseline.census
        assert overlay.observatory is not baseline.observatory

    def test_traffic_only_overlay_keeps_census_and_observatory(self, baseline):
        before = counts("builds_total")
        overlay = OverlayStudy(baseline, "hetimer:300")
        overlay.traffic
        assert overlay.observatory is baseline.observatory
        assert overlay.census is baseline.census
        assert _deltas(before) == {"whatif:traffic": 1}

    def test_census_perturbation_cascades_to_derived_layers(self, baseline):
        before = counts("builds_total")
        overlay = OverlayStudy(baseline, "dualstack:Cloudflare")
        overlay.census
        overlay.cloud
        overlay.dependencies
        overlay.observatory
        assert _deltas(before) == {
            "whatif:census": 1,
            "whatif:cloud": 1,
            "whatif:dependencies": 1,
            "whatif:observatory": 1,
        }

    def test_same_scenario_twice_is_one_rebuild(self, baseline):
        OverlayStudy(baseline, "nat64:JP").observatory
        before = counts("builds_total")
        OverlayStudy(baseline, "nat64:JP").observatory
        assert _deltas(before) == {}

    def test_different_scenarios_do_not_share_perturbed_entries(self, baseline):
        first = OverlayStudy(baseline, "block:CN@0.5").observatory
        second = OverlayStudy(baseline, "block:CN@0.9").observatory
        assert first is not second


class TestOverlayOnAColdBaseline:
    #: A world no other test builds, so the build deltas below are exact.
    COLD = StudyConfig(
        days=3, sites=105, seed=4343, probe_targets=40, probe_interval_days=2,
        residences=("A",), parallel=False,
    )

    def test_untouched_traffic_is_the_baseline_build(self):
        """An overlay that leaves traffic alone builds (and caches) the
        plain baseline layer, draws included, so traffic what-ifs over
        the same config can still re-race it."""
        from repro.api import clear_caches

        clear_caches()
        before = counts("builds_total")
        traffic = OverlayStudy(self.COLD, "nat64:DE").traffic
        assert _deltas(before) == {"traffic": 1}
        assert traffic is Study(self.COLD).traffic
        assert all(dataset.draws is not None for dataset in traffic.datasets.values())
        rerace = OverlayStudy(self.COLD, "ispv6").traffic
        assert rerace.datasets.keys() == traffic.datasets.keys()


class TestComposedScenarioSharing:
    #: A world no other test builds, so the deltas below are exact.
    COMPOSED = StudyConfig(
        days=3, sites=105, seed=1313, probe_targets=40, probe_interval_days=2,
    )

    def test_composition_reuses_its_sub_scenario_layers(self):
        from repro.whatif import run_sweep

        baseline = Study(self.COMPOSED)
        baseline.traffic, baseline.census, baseline.observatory
        before = counts("builds_total")
        run_sweep(baseline, ("dualstack:Amazon", "dualstack:Amazon+ispv6"), parallel=False)
        # Both scenarios re-race the baseline's traffic draws, but only
        # dualstack touches the census, so the composition reuses its
        # census and observatory.
        assert _deltas(before) == {
            "whatif:traffic": 2,
            "whatif:census": 1,
            "whatif:observatory": 1,
        }

    def test_layer_keys_carry_only_the_declaring_interventions(self):
        single = OverlayStudy(self.COMPOSED, "dualstack:Amazon")
        composed = OverlayStudy(self.COMPOSED, "dualstack:Amazon+ispv6")
        assert composed.key("census") == single.key("census")
        assert composed.key("observatory") == single.key("observatory")
        assert composed.key("traffic") != single.key("traffic")
        assert composed.key("traffic")[-1] == "dualstack:Amazon+ispv6"


#: Each perturbable layer's transform hooks.
LAYER_HOOKS = {
    "traffic": ("transform_profiles", "transform_catalog", "transform_he_config"),
    "census": ("publish_aaaa",),
    "observatory": ("transform_fleet", "transform_observatory_config"),
}


class TestUndeclaredHooksAreIdentity:
    """Builders apply only the interventions declaring their layer; that
    is output-neutral because every other hook is the identity."""

    def test_hooks_cover_the_perturbable_layers(self):
        from repro.whatif.spec import PERTURBABLE_LAYERS

        assert set(LAYER_HOOKS) == PERTURBABLE_LAYERS

    @pytest.mark.parametrize("kind", ["ispv6", "dualstack", "nat64", "block", "accelerate", "hetimer"])
    def test_undeclared_layers_keep_the_base_hooks(self, kind):
        from repro.whatif.spec import INTERVENTION_TYPES, Intervention

        cls = INTERVENTION_TYPES[kind]
        for layer, hooks in LAYER_HOOKS.items():
            if layer not in cls.LAYERS:
                for hook in hooks:
                    assert getattr(cls, hook) is getattr(Intervention, hook), (kind, hook)

    def test_base_hooks_return_their_input(self):
        from repro.happyeyeballs.algorithm import HappyEyeballsConfig
        from repro.observatory.rounds import ObservatoryConfig
        from repro.observatory.vantage import build_vantage_fleet
        from repro.traffic.apps import build_service_catalog
        from repro.traffic.residences import build_paper_residences
        from repro.whatif.spec import Intervention

        base = Intervention()
        for hook, value in (
            ("transform_profiles", build_paper_residences()),
            ("transform_catalog", build_service_catalog()),
            ("transform_he_config", HappyEyeballsConfig()),
            ("transform_he_config", None),
            ("transform_fleet", build_vantage_fleet()),
            ("transform_observatory_config", ObservatoryConfig(num_days=3)),
        ):
            assert getattr(base, hook)(value) is value, hook
        assert base.publish_aaaa(object()) == {}  # publishes nothing


class TestOverlaySemantics:
    def test_nat64_raises_availability_in_that_country_only(self, baseline):
        from repro.whatif.sweep import availability_by_country

        overlay = OverlayStudy(baseline, "nat64:US")
        base = availability_by_country(baseline.observatory)
        counter = availability_by_country(overlay.observatory)
        countries = baseline.observatory.countries
        us = countries.index("US")
        assert counter[us] > base[us]
        for index, country in enumerate(countries):
            if country != "US":
                assert counter[index] == pytest.approx(base[index])

    def test_dualstack_provider_adds_aaaa_ground_truth(self, baseline):
        overlay = OverlayStudy(baseline, "dualstack:Amazon")
        placements = {
            placement.fqdn: placement
            for tenant in baseline.census.ecosystem.tenants.values()
            for placement in tenant.placements
        }
        published = overlay.census.published
        assert published
        for fqdn in published:
            assert placements[fqdn].provider_name == "Amazon"
            assert not placements[fqdn].has_aaaa

        def aaaa_count(census):
            return sum(record.has_aaaa for record in census.dataset.all_requests())

        assert aaaa_count(overlay.census) > aaaa_count(baseline.census)

    def test_overlay_from_bare_config(self):
        overlay = OverlayStudy(SMALL, "accelerate:3")
        assert overlay.perturbed == frozenset({"observatory"})
        assert overlay.config.whatif_scenarios is None


class TestEnableProviderAaaa:
    def test_query_is_deterministic_and_non_empty(self, baseline):
        from repro.datasets.scenarios import build_census

        # Twice over the cached universe (the query allocates nothing),
        # then over two fresh builds.
        cached = baseline.census.ecosystem
        records = [cached.provider_aaaa("Amazon"), cached.provider_aaaa("Amazon")]
        for _ in range(2):
            census = build_census(num_sites=SMALL.sites, seed=SMALL.seed)
            records.append(census.ecosystem.provider_aaaa("Amazon"))
        assert all(record == records[0] for record in records)
        assert records[0]

    def test_unknown_provider_rejected(self, baseline):
        with pytest.raises(ValueError, match="unknown provider"):
            baseline.census.ecosystem.provider_aaaa("Initech")


#: The traffic scenarios that change who can race, not when.
RACE_SCENARIOS = ("ispv6", "dualstack:Amazon", "dualstack:Amazon+ispv6")


def _without_dual_syns(rows: np.ndarray) -> np.ndarray:
    """The log rows minus the dual-SYN flows: the only non-ICMP flows
    shorter than a second (connections last 2 s or more, LAN flows 5 s
    or more)."""
    from repro.traffic.draws import DUAL_SYN_DURATION, ICMP
    from repro.traffic.generate import DURATION_RANGE

    assert min(low for low, _high in DURATION_RANGE.values()) > DUAL_SYN_DURATION[1]
    short = rows["end"] - rows["start"] < DUAL_SYN_DURATION[1]
    return rows[~((rows["protocol"] != ICMP) & short)]


@dataclasses.dataclass(frozen=True)
class _Rediet(Intervention):
    """A traffic lever that changes a household's diet: not re-raceable."""

    KIND: ClassVar[str] = "rediet"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"traffic"})

    def spec_arg(self) -> str:
        return ""

    def transform_profiles(self, profiles):
        return [
            dataclasses.replace(
                profile, service_weights={**profile.service_weights, "Google": 99.0}
            )
            for profile in profiles
        ]


class TestTrafficOverlaysReraceTheBaselineDraws:
    @pytest.mark.parametrize("spec", RACE_SCENARIOS)
    def test_no_residence_loses_ipv6_bytes_share(self, baseline, spec):
        from repro.core.client import compute_residence_stats

        overlay = OverlayStudy(baseline, spec).traffic
        before = {
            name: compute_residence_stats(dataset).external.byte_fraction_overall
            for name, dataset in baseline.traffic.datasets.items()
        }
        after = {
            name: compute_residence_stats(dataset).external.byte_fraction_overall
            for name, dataset in overlay.datasets.items()
        }
        assert after.keys() == before.keys()
        assert all(after[name] >= before[name] for name in before), (before, after)
        assert any(after[name] > before[name] for name in before)

    @pytest.mark.parametrize("spec", RACE_SCENARIOS)
    def test_rows_differ_only_in_family_addresses_and_dual_syns(self, baseline, spec):
        from repro.flowmon.monitor import LOG_DTYPE

        overlay = OverlayStudy(baseline, spec).traffic
        kept = [name for name in LOG_DTYPE.names if name not in ("src", "dst", "sport")]
        changed = 0
        for name, dataset in baseline.traffic.datasets.items():
            base = _without_dual_syns(dataset.monitor.log.rows)
            counter = _without_dual_syns(overlay.datasets[name].monitor.log.rows)
            assert base.size == counter.size, name
            for field in kept:
                np.testing.assert_array_equal(base[field], counter[field], err_msg=field)
            base_log = dataset.monitor.log
            counter_log = overlay.datasets[name].monitor.log
            base_v6 = [base_log.addresses[i].is_v6 for i in base["dst"].tolist()]
            counter_v6 = [counter_log.addresses[i].is_v6 for i in counter["dst"].tolist()]
            changed += sum(a != b for a, b in zip(base_v6, counter_v6))
        assert changed > 0  # some connections did switch family

    def test_transform_beyond_negotiation_inputs_is_refused(self, baseline):
        with pytest.raises(ValueError, match="'rediet'"):
            OverlayStudy(baseline, _Rediet()).traffic

    def test_overlay_over_a_warehouse_baseline_matches_a_fresh_one(self, tmp_path):
        from repro.api.session import _CACHE
        from repro.store import set_store

        config = StudyConfig(
            days=3, sites=105, seed=4242, probe_targets=40, probe_interval_days=2,
            residences=("A", "C"), parallel=False,
        )
        spec = "dualstack:Amazon+ispv6"
        set_store(tmp_path / "warehouse")
        try:
            fresh_baseline = Study(config).traffic  # built, then written behind
        finally:
            set_store(None)
        fresh = OverlayStudy(config, spec)
        fresh_frames = {n: d.frame() for n, d in fresh.traffic.datasets.items()}

        _CACHE.pop(("traffic", Study(config).key("traffic")))
        _CACHE.pop(("traffic", fresh.key("traffic")))
        hits = counts("store_ops_total")["hit:traffic"]
        set_store(tmp_path / "warehouse")
        try:
            loaded_baseline = Study(config).traffic
        finally:
            set_store(None)
        assert counts("store_ops_total")["hit:traffic"] == hits + 1
        assert loaded_baseline is not fresh_baseline
        loaded = OverlayStudy(config, spec).traffic
        assert loaded is not fresh.traffic
        for name, frame in fresh_frames.items():
            got = loaded.datasets[name].frame()
            assert got.data.tobytes() == frame.data.tobytes(), name
            assert [str(p) for p in got.peers] == [str(p) for p in frame.peers]
            assert got.peer_asn.tobytes() == frame.peer_asn.tobytes()
            assert got.domains == frame.domains


class TestUniverseSharing:
    """A traffic overlay whose catalog equals the baseline's re-races over
    the baseline's ``ServiceUniverse``; one that changes the catalog (a
    ``dualstack:*`` provider's servers gain IPv6) builds its own."""

    #: Private to this class, so no other test's overlay is a cache hit.
    CONFIG = StudyConfig(
        days=3, sites=105, seed=2207, probe_targets=40, probe_interval_days=2,
        parallel=False,
    )

    @pytest.fixture(scope="class")
    def warm(self):
        study = Study(self.CONFIG)
        study.traffic
        return study

    @pytest.fixture()
    def universes(self, monkeypatch):
        """The catalogs of the ``ServiceUniverse``s built during the test."""
        from repro.traffic.universe import ServiceUniverse

        built = []
        init = ServiceUniverse.__init__

        def counted(universe, catalog):
            built.append(catalog)
            init(universe, catalog)

        monkeypatch.setattr(ServiceUniverse, "__init__", counted)
        return built

    @pytest.mark.parametrize("spec", ["ispv6", "hetimer:300"])
    def test_unchanged_catalog_builds_no_universe(self, warm, universes, spec):
        traffic = OverlayStudy(warm, spec).traffic
        assert universes == []
        assert traffic.universe is warm.traffic.universe
        for dataset in traffic.datasets.values():
            assert dataset.universe is warm.traffic.universe

    def test_changed_catalog_builds_one_universe(self, warm, universes):
        traffic = OverlayStudy(warm, "dualstack:Amazon").traffic
        assert len(universes) == 1
        assert traffic.universe is not warm.traffic.universe
        for dataset in traffic.datasets.values():
            assert dataset.universe is traffic.universe

    def test_sweep_builds_one_universe_per_catalog(self, universes):
        """A sequential default sweep from a fresh baseline builds the
        baseline's universe and ``dualstack:Amazon``'s, which
        ``dualstack:Amazon+ispv6`` shares."""
        from repro.whatif import run_sweep

        config = StudyConfig(days=3, sites=60, seed=2208, probe_targets=30, parallel=False)
        sweep = run_sweep(config, parallel=False)
        assert "dualstack:Amazon+ispv6" in sweep.frame.scenarios
        assert len(universes) == len({tuple(catalog) for catalog in universes}) == 2
