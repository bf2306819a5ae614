"""Sweep-by-events: ranking semantics and the cache-reuse contract."""

import pytest

from repro.api import Study, StudyConfig, clear_caches
from repro.telemetry import counts
from repro.whatif.events import run_event_sweep
from repro.whatif.sweep import sweep_grid

CONFIG = StudyConfig(days=3, sites=80, probe_targets=40, parallel=False)

#: Observatory-only levers: a 20+ scenario grid whose overlays rebuild
#: nothing but the vantage layer (and their own sentinel scans).
BASES = (
    "nat64:DE",
    "nat64:FR",
    "nat64:US",
    "nat64:JP",
    "block:BR@0.6",
    "block:CN@0.5",
)


@pytest.fixture(autouse=True)
def _cold():
    clear_caches()
    yield
    clear_caches()


def test_twenty_scenario_sweep_rebuilds_zero_baseline_layers():
    study = Study(CONFIG)
    study.sentinel  # baseline universes + feed, built once
    specs = tuple(scenario.spec() for scenario in sweep_grid(BASES))
    assert len(specs) >= 20

    before = counts("builds_total")
    sweep = run_event_sweep(study, specs)

    # The acceptance contract: baseline layers never rebuild.
    for layer in ("traffic", "census", "cloud", "observatory", "sentinel"):
        assert counts("builds_total")[layer] == before[layer], layer
    # No scenario here perturbs traffic or census.
    assert counts("builds_total")["whatif:traffic"] == before["whatif:traffic"]
    assert counts("builds_total")["whatif:census"] == before["whatif:census"]
    # Each overlay builds exactly its own observatory and sentinel scan.
    assert (
        counts("builds_total")["whatif:observatory"] - before["whatif:observatory"]
        == len(specs)
    )
    assert (
        counts("builds_total")["whatif:sentinel"] - before["whatif:sentinel"]
        == len(specs)
    )

    # Ranked by triggered-event count, spec as the tiebreaker.
    assert {entry.scenario for entry in sweep.scenarios} == set(specs)
    totals = [entry.events_total for entry in sweep.scenarios]
    assert totals == sorted(totals, reverse=True)

    # A second sweep over the same grid is pure cache hits.
    again = counts("builds_total")
    rerun = run_event_sweep(study, specs)
    assert counts("builds_total") == again
    assert rerun == sweep


def test_default_scenarios_come_from_the_whatif_grid():
    scoped = CONFIG.replace(whatif_scenarios=("nat64:DE",))
    study = Study(scoped)
    sweep = run_event_sweep(study)
    assert [entry.scenario for entry in sweep.scenarios] == ["nat64:DE"]
    [entry] = sweep.scenarios
    assert entry.layers == ("observatory",)
    assert dict(entry.by_severity).keys() == {"watch", "elevated", "critical"}
    assert entry.events_total == sum(count for _, count in entry.by_severity)


def test_event_ranking_artifact_renders_the_sweep():
    scoped = CONFIG.replace(whatif_scenarios=("nat64:DE", "block:US@0.6"))
    result = Study(scoped).artifact("whatif_event_ranking")
    assert len(result.rows) == 2
    assert [row["rank"] for row in result.rows] == [1, 2]
    counts = [row["events_total"] for row in result.rows]
    assert counts == sorted(counts, reverse=True)
    assert "baseline feed" in result.to_text()

