"""Longitudinal rounds re-decide adoption instead of rebuilding the universe.

The reference is a rebuild (the ``rebuild`` fixture): the universe rebuilt
at the round's ``inclination_base`` and crawled again.  A round re-decides
every adoption decision from the base universe's
:class:`~repro.web.ecosystem.AdoptionTable` and re-classifies the base
crawl with the changed FQDNs' AAAA and replayed races; it must equal the
rebuild in every ``CensusBreakdown`` field and in every request's AAAA flag
and race winner.
"""

import pytest

from repro.core.longitudinal import adoption_change, run_snapshots
from repro.core.readiness import census_breakdown
from repro.crawler.crawl import CensusConfig, WebCensus
from repro.datasets.scenarios import CensusStudy
from repro.web.ecosystem import SiteStatus, WebEcosystemConfig

BASE = WebEcosystemConfig().inclination_base

#: (sites, seed, drift per round, rounds): drift 0, drift 1.0 (every
#: inclination saturates), four rounds, and a config in which a
#: TLS-failure site's www gains AAAA.
GRID = [
    (120, 3, 0.0, 2),
    (120, 3, 1.0, 2),
    (150, 4, 0.05, 4),
    (200, 11, 0.3, 2),
]


def replayed(base: CensusStudy, inclination_base: float):
    changed = base.ecosystem.adoption.changed_aaaa(BASE, inclination_base)
    census = WebCensus(base.ecosystem, CensusConfig(seed=base.config.seed))
    return changed, census.replay(base.dataset, changed)


def round_bases(drift: float, rounds: int) -> list[float]:
    return [BASE + drift * index for index in range(rounds)]


@pytest.mark.parametrize("sites, seed, drift, rounds", GRID)
def test_rounds_equal_rebuilds(rebuild, sites, seed, drift, rounds):
    base = rebuild(sites, seed, BASE)
    snapshots = run_snapshots(
        labels=tuple(f"r{i}" for i in range(rounds)), drift_per_round=drift, base=base
    )
    expected = [
        census_breakdown(rebuild(sites, seed, b).dataset)
        for b in round_bases(drift, rounds)
    ]
    assert [s.breakdown for s in snapshots] == expected
    if drift > 0:
        assert snapshots[-1].breakdown != snapshots[0].breakdown


@pytest.mark.parametrize("sites, seed, drift, rounds", GRID)
def test_replay_matches_every_rebuilt_record(rebuild, sites, seed, drift, rounds):
    base = rebuild(sites, seed, BASE)
    for inclination_base in round_bases(drift, rounds)[1:]:
        _, (aaaa, family) = replayed(base, inclination_base)
        records = rebuild(sites, seed, inclination_base).dataset.all_requests()
        assert aaaa == [r.has_aaaa for r in records]
        assert family == [r.family_used for r in records]


def test_a_tls_failure_www_gains_aaaa(rebuild):
    """The replay must draw the slow-AAAA coin of a failed site's
    unrecorded main-host fetch; this config exercises a gained one."""
    sites, seed, drift, _ = GRID[-1]
    base = rebuild(sites, seed, BASE)
    changed, _ = replayed(base, BASE + drift)
    gained = [
        plan for plan in base.ecosystem.plans.values()
        if plan.status is SiteStatus.TLS_FAILURE
        and changed.get(plan.tenant.main_placement.fqdn)
    ]
    assert gained


@pytest.mark.parametrize("sites, seed", [(120, 3), (200, 11), (300, 7)])
def test_round_zero_replay_reproduces_the_crawl(rebuild, sites, seed):
    base = rebuild(sites, seed, BASE)
    changed, (aaaa, family) = replayed(base, BASE)
    records = base.dataset.all_requests()
    assert changed == {}
    assert aaaa == [r.has_aaaa for r in records]
    assert family == [r.family_used for r in records]
    assert any(r.family_used is not None and r.has_aaaa for r in records)


@pytest.mark.parametrize("sites, seed", [(120, 3), (200, 11)])
def test_decisions_at_base_reproduce_every_placement(rebuild, sites, seed):
    ecosystem = rebuild(sites, seed, BASE).ecosystem
    decided = ecosystem.adoption.decisions_at(BASE)
    placements = {
        placement.fqdn: placement.has_aaaa
        for plan in ecosystem.plans.values()
        if plan.tenant is not None
        for placement in plan.tenant.placements
    }
    assert decided == placements
    # Drift only gains AAAA, and decides a site placement from the table alone.
    later = ecosystem.adoption.changed_aaaa(BASE, BASE + 0.3)
    assert later and all(later.values())
    assert all(not placements[fqdn] for fqdn in later)


def test_decisions_match_a_rebuild_at_the_drifted_base(rebuild):
    drifted = BASE + 0.3
    ecosystem = rebuild(200, 11, BASE).ecosystem
    rebuilt = rebuild(200, 11, drifted).ecosystem
    assert ecosystem.adoption.decisions_at(drifted) == rebuilt.adoption.decisions_at(drifted)
    assert ecosystem.adoption.noise == rebuilt.adoption.noise
    assert ecosystem.adoption.uniform == rebuilt.adoption.uniform


@pytest.mark.parametrize("provider, drift", [("Cloudflare", 0.05), ("Amazon", 0.3)])
def test_overlay_rounds_keep_the_overlay(rebuild, provider, drift):
    """Rounds over a ``dualstack:<provider>`` census equal rebuilds that
    dual-stack the provider at the drifted inclination."""
    sites, seed = 200, 8
    base = rebuild(sites, seed, BASE, provider)
    snapshots = run_snapshots(labels=("t0", "t1"), drift_per_round=drift, base=base)
    expected = [
        census_breakdown(rebuild(sites, seed, b, provider).dataset)
        for b in round_bases(drift, 2)
    ]
    assert [s.breakdown for s in snapshots] == expected
    standing = run_snapshots(labels=("t0", "t1"), drift_per_round=0.0, base=base)
    assert standing[0].breakdown == standing[1].breakdown
    assert adoption_change(standing) == 0.0


def test_published_overlay_rounds_match_every_rebuilt_record(rebuild, monkeypatch):
    """Rounds over a published ``dualstack:Amazon`` census (whose universe
    is the baseline's, its placements AAAA-less) flip the published FQDNs
    in every round's replay: an unknown-primary site's unrecorded
    main-host coin depends on it, and only per-record winners show it."""
    from repro.api import StudyConfig, clear_caches
    from repro.whatif.overlay import OverlayStudy

    sites, seed, drift = 200, 17, 0.3
    try:
        base = OverlayStudy(StudyConfig(days=1, sites=sites, seed=seed), "dualstack:Amazon").census
    finally:
        clear_caches()
    assert base.published
    replays = []
    replay = WebCensus.replay

    def recorded(census, dataset, changed):
        replays.append(replay(census, dataset, changed))
        return replays[-1]

    monkeypatch.setattr(WebCensus, "replay", recorded)
    snapshots = run_snapshots(labels=("t0", "t1"), drift_per_round=drift, base=base)
    expected = [rebuild(sites, seed, b, "Amazon") for b in round_bases(drift, 2)]
    assert [s.breakdown for s in snapshots] == [census_breakdown(e.dataset) for e in expected]
    aaaa, family = replays[-1]
    records = expected[-1].dataset.all_requests()
    assert aaaa == [r.has_aaaa for r in records]
    assert family == [r.family_used for r in records]


def test_overlay_artifact_rounds_stand_without_drift():
    from repro.api import StudyConfig, clear_caches
    from repro.whatif.overlay import OverlayStudy

    overlay = OverlayStudy(StudyConfig(days=1, sites=200, seed=8), "dualstack:Cloudflare")
    try:
        result = overlay.artifact("longitudinal", drift_per_round=0.0)
    finally:
        clear_caches()
    assert result.metadata["adoption_change_pp"] == 0.0
    first, last = result.rows
    assert first["ipv6_full"] == last["ipv6_full"] > 0


def test_rounds_build_one_universe_without_a_base(constructions):
    run_snapshots(labels=("a", "b", "c"), num_sites=60, seed=2, drift_per_round=0.1)
    assert constructions == {"ecosystem": 1, "crawl": 1}


def test_rounds_build_nothing_over_a_base(rebuild, constructions):
    base = rebuild(120, 3, BASE)
    constructions.clear()
    run_snapshots(labels=("a", "b", "c"), drift_per_round=0.1, base=base)
    assert constructions == {}
