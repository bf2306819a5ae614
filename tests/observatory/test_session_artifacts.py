"""The observatory as a Study layer and its registered artifacts."""

import pytest

from repro.api import Study, StudyConfig, registry
from repro.telemetry import counts

SMALL = StudyConfig(
    days=6, sites=80, seed=9, probe_targets=40, probe_interval_days=3,
    parallel=False,
)

OBSERVATORY_ARTIFACTS = (
    "obs_vantages",
    "obs_availability",
    "obs_takeoff",
    "obs_policies",
    "obs_sites",
    "contrast",
)


class TestSessionLayer:
    def test_lazy_build_and_cache(self):
        study = Study(SMALL)
        before = counts("builds_total")["observatory"]
        obs = study.observatory
        assert counts("builds_total")["observatory"] == before + 1
        assert study.observatory is obs  # instance memo
        # A second session with an equal config shares the build.
        assert Study(SMALL).observatory is obs
        assert counts("builds_total")["observatory"] == before + 1

    def test_config_keys_the_cache(self):
        study = Study(SMALL)
        other = Study(SMALL.replace(probe_targets=20))
        assert other.observatory is not study.observatory
        assert len(other.observatory.targets) == 20

    def test_observatory_scales_with_config(self):
        obs = Study(SMALL).observatory
        assert len(obs.targets) == SMALL.probe_targets
        assert obs.config.round_days == (0, 3)
        assert obs.config.num_days == SMALL.days

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(probe_targets=0)
        with pytest.raises(ValueError):
            StudyConfig(probe_interval_days=0)


class TestArtifacts:
    def test_at_least_five_observatory_artifacts_registered(self):
        backed = {
            spec.name
            for spec in registry.specs()
            if "observatory" in spec.needs
        }
        assert len(backed) >= 5
        # Every observatory artifact must *declare* the layer it reads.
        assert set(OBSERVATORY_ARTIFACTS) <= backed

    @pytest.mark.parametrize("name", OBSERVATORY_ARTIFACTS)
    def test_artifact_renders_text_and_json(self, name):
        study = Study(SMALL)
        result = study.artifact(name)
        assert result.name == name
        assert result.to_text().strip()
        assert result.to_json()

    def test_contrast_contains_all_three_perspectives(self):
        study = Study(SMALL)
        result = study.artifact("contrast")
        assert result.rows, "contrast must produce per-country rows"
        countries = {row["country"] for row in result.rows}
        assert len(countries) == len(result.rows)
        for row in result.rows:
            for key in (
                "available_share",
                "census_full_share",
                "traffic_v6_byte_fraction",
            ):
                assert 0.0 <= row[key] <= 1.0
        graded = {
            (
                row["census_full_share"],
                row["census_partial_share"],
                row["census_v4only_share"],
            )
            for row in result.rows
        }
        assert len(graded) == 1, "graded readiness is one truth for all countries"
        usage = {row["traffic_v6_byte_fraction"] for row in result.rows}
        assert len(usage) == 1, "usage is one truth for all countries"
        binary = {row["available_share"] for row in result.rows}
        assert len(binary) > 1, "binary availability must vary by country"
