"""Tests for the artifact registry: coverage, structure, JSON rendering."""

import json

import pytest

from repro.api import ArtifactResult, Study, StudyConfig, artifact
from repro.api import registry
from repro.api.session import LAYER_GRAPH

#: One tiny session shared by every artifact smoke test in this module.
SHARED = StudyConfig(days=7, sites=220, seed=99)


@pytest.fixture(scope="module")
def study():
    return Study(SHARED)


class TestRegistryContents:
    def test_at_least_twenty_artifacts(self):
        assert len(registry.names()) >= 20

    def test_headline_artifacts_present(self):
        names = set(registry.names())
        assert {"table1", "table2", "table3", "fig5", "fig6", "deps"} <= names
        # every numbered figure of the paper
        assert {f"fig{i}" for i in range(1, 19) if i != 11} <= names
        assert "fig11" in names

    def test_specs_are_described(self):
        for spec in registry.specs():
            assert spec.description, spec.name
            assert spec.paper, spec.name
            assert spec.needs, spec.name
            assert spec.needs <= LAYER_GRAPH.keys(), spec.name

    def test_get_unknown_raises_with_names(self):
        with pytest.raises(KeyError, match="table1"):
            registry.get("nonsense")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            artifact("table1")(lambda study: ArtifactResult())

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layers"):
            artifact("bogus-layer-artifact", needs=("warp",))

    @pytest.mark.parametrize("declaration", [{}, {"needs": ()}], ids=["omitted", "empty"])
    def test_undeclared_layers_rejected(self, declaration):
        with pytest.raises(ValueError, match="'no-layer-artifact' declares no layers"):
            artifact("no-layer-artifact", **declaration)
        assert "no-layer-artifact" not in registry.names()


class TestEveryArtifactRenders:
    @pytest.mark.parametrize("name", registry.names())
    def test_text_and_json(self, study, name):
        result = study.artifact(name)
        assert isinstance(result, ArtifactResult)
        assert result.name == name
        text = result.to_text()
        assert isinstance(text, str) and text.strip()
        parsed = json.loads(result.to_json())
        assert parsed["name"] == name
        assert isinstance(parsed["rows"], list)
        for row in parsed["rows"]:
            assert isinstance(row, dict)

    def test_rows_follow_columns(self, study):
        result = study.artifact("table1")
        assert set(result.columns) == set(result.rows[0])

    def test_params_flow_through(self, study):
        assert len(study.artifact("table3", top=2).rows) <= 3  # overall + 2
