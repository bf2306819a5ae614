"""OverlayStudy: perturbed layers rebuild, untouched layers cache-hit.

The cache-reuse accounting tests assert on ``BUILD_COUNTS`` deltas --
the same proof the session memoization tests use -- so "reuses the
baseline" means *zero* rebuilds of untouched layers, not "was probably
fast".
"""

import pytest

from repro.api import BUILD_COUNTS, Study, StudyConfig
from repro.datasets import build_residence_study
from repro.whatif import OverlayStudy

#: One tiny world private to this module: the seed differs from the
#: other whatif test modules so the exact BUILD_COUNTS accounting below
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
    return {
        key: BUILD_COUNTS[key] - before.get(key, 0)
        for key in set(BUILD_COUNTS) | set(before)
        if BUILD_COUNTS[key] != before.get(key, 0)
    }


class TestCacheReuseAccounting:
    def test_observatory_only_overlay_rebuilds_zero_traffic_census(self, baseline):
        before = BUILD_COUNTS.copy()
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
        before = BUILD_COUNTS.copy()
        overlay = OverlayStudy(baseline, "hetimer:300")
        overlay.traffic
        assert overlay.observatory is baseline.observatory
        assert overlay.census is baseline.census
        assert _deltas(before) == {"whatif:traffic": 1}

    def test_census_perturbation_cascades_to_derived_layers(self, baseline):
        before = BUILD_COUNTS.copy()
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
        before = BUILD_COUNTS.copy()
        OverlayStudy(baseline, "nat64:JP").observatory
        assert _deltas(before) == {}

    def test_different_scenarios_do_not_share_perturbed_entries(self, baseline):
        first = OverlayStudy(baseline, "block:CN@0.5").observatory
        second = OverlayStudy(baseline, "block:CN@0.9").observatory
        assert first is not second


class TestComposedScenarioSharing:
    #: A world no other test builds, so the deltas below are exact.
    COMPOSED = StudyConfig(
        days=3, sites=105, seed=1313, probe_targets=40, probe_interval_days=2,
    )

    def test_composition_reuses_its_sub_scenario_layers(self):
        from repro.whatif import run_sweep

        baseline = Study(self.COMPOSED)
        baseline.traffic, baseline.census, baseline.observatory
        before = BUILD_COUNTS.copy()
        run_sweep(baseline, ("dualstack:Amazon", "dualstack:Amazon+ispv6"), parallel=False)
        # Both scenarios regenerate traffic, but only dualstack touches
        # the census, so the composition reuses its census and observatory.
        assert _deltas(before) == {
            "whatif:traffic": 2,
            "whatif:census": 1,
            "whatif:observatory": 1,
        }

    def test_layer_keys_carry_only_the_declaring_interventions(self):
        single = OverlayStudy(self.COMPOSED, "dualstack:Amazon")
        composed = OverlayStudy(self.COMPOSED, "dualstack:Amazon+ispv6")
        assert composed._census_key() == single._census_key()
        assert composed._observatory_key() == single._observatory_key()
        assert composed._traffic_key() != single._traffic_key()
        assert composed._traffic_key()[-1] == "dualstack:Amazon+ispv6"


#: Each perturbable layer's transform hooks.
LAYER_HOOKS = {
    "traffic": ("transform_profiles", "transform_catalog", "transform_he_config"),
    "census": ("transform_ecosystem",),
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
        assert base.transform_ecosystem(object()) is None  # mutates nothing


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
        def aaaa_count(census):
            return sum(
                placement.has_aaaa
                for tenant in census.ecosystem.tenants.values()
                for placement in tenant.placements
            )
        assert aaaa_count(overlay.census) > aaaa_count(baseline.census)

    def test_prebuilt_baseline_rejected(self):
        traffic = build_residence_study(num_days=3, seed=9005, residences=("A",))
        prebuilt = Study.from_prebuilt(traffic=traffic)
        with pytest.raises(ValueError, match="prebuilt"):
            OverlayStudy(prebuilt, "nat64:DE")

    def test_overlay_from_bare_config(self):
        overlay = OverlayStudy(SMALL, "accelerate:3")
        assert overlay.perturbed == frozenset({"observatory"})
        assert overlay.config.whatif_scenarios is None


class TestEnableProviderAaaa:
    def test_mutation_is_deterministic_and_counted(self, baseline):
        from repro.datasets.scenarios import build_census

        counts = []
        for _ in range(2):
            census = build_census(num_sites=SMALL.sites, seed=SMALL.seed)
            counts.append(census.ecosystem.enable_provider_aaaa("Amazon"))
        assert counts[0] == counts[1] > 0

    def test_unknown_provider_rejected(self, baseline):
        with pytest.raises(ValueError, match="unknown provider"):
            baseline.census.ecosystem.enable_provider_aaaa("Initech")
