"""REP004 fixture: a fully-declared, documented artifact passes clean."""

from repro.api.registry import ArtifactResult, artifact


@artifact(
    "fixture_table",
    needs=("traffic", "census", "sentinel"),
    title="A fixture artifact",
    paper="Table 0",
)
def render_fixture_table(study) -> ArtifactResult:
    """One line of description for ``repro list``."""
    return ArtifactResult(columns=("a",), rows=[{"a": 1}])
