"""A census what-if publishes over the shared universe instead of rebuilding it.

``dualstack:<provider>``'s census layer is the baseline census with the
provider's AAAA records published (:meth:`CensusStudy.publish`): the
universe is the baseline's, never mutated, and the crawl is replayed.
The reference is a rebuild (the ``rebuild`` fixture): the universe built
again, the provider dual-stacked in place, and crawled again.  Publishing
must equal it in the published FQDNs, the breakdown, every record (a
gained AAAA may point at another address of the same organization), the
cloud and dependency analyses, the observatory's probe frame and the
sweep's delta rows.  A reference session primes the overlay's census key
with the rebuild, so its observatory and sweep run as a rebuilt census's
always did.
"""

import hashlib
import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import Study, StudyConfig, clear_caches
from repro.api.session import prime_caches
from repro.core.readiness import census_breakdown
from repro.telemetry import counts
from repro.web.ecosystem import SiteStatus
from repro.whatif import OverlayStudy, run_sweep

#: (sites, seed, provider).
CONFIGS = [
    (300, 17, "Amazon"),
    (300, 21, "Cloudflare"),
    (300, 40, "Google"),
    (200, 17, "Amazon"),
]


def study_config(sites: int, seed: int) -> StudyConfig:
    return StudyConfig(
        days=6, sites=sites, seed=seed, probe_targets=sites,
        probe_interval_days=2, residences=("A", "C"), parallel=False,
    )


def aaaa_placements(ecosystem) -> set[str]:
    return {
        placement.fqdn
        for tenant in ecosystem.tenants.values()
        for placement in tenant.placements
        if placement.has_aaaa
    }


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: "-".join(map(str, c)))
def worlds(request, rebuild):
    """One config's ``baseline`` census, ``rebuilt`` census, publishing
    overlay (``published``), overlay over the primed rebuild
    (``reference``), and each overlay's sweep rows (``published_rows``,
    ``reference_rows``)."""
    sites, seed, provider = request.param
    config, spec = study_config(sites, seed), f"dualstack:{provider}"
    rebuilt = rebuild(sites, seed, None, provider)
    clear_caches()
    try:
        published = OverlayStudy(config, spec)
        published.census, published.cloud, published.dependencies, published.observatory
        baseline = Study(config).census
        published_rows = run_sweep(Study(config), [spec], parallel=False).frame
        clear_caches()
        prime_caches({"census": {published.key("census"): rebuilt}})
        reference = OverlayStudy(config, spec)
        reference.census, reference.cloud, reference.dependencies, reference.observatory
        reference_rows = run_sweep(Study(config), [spec], parallel=False).frame
    finally:
        clear_caches()
    yield SimpleNamespace(
        baseline=baseline, rebuilt=rebuilt, published=published, reference=reference,
        published_rows=published_rows, reference_rows=reference_rows,
    )


def test_published_fqdns_are_the_rebuilds_dual_stacked_placements(worlds):
    baseline, rebuilt = worlds.baseline.ecosystem, worlds.rebuilt.ecosystem
    flipped = aaaa_placements(rebuilt) - aaaa_placements(baseline)
    assert flipped
    assert set(worlds.published.census.published) == flipped
    assert aaaa_placements(baseline) <= aaaa_placements(rebuilt)


def test_breakdown_equals_the_rebuilds(worlds):
    assert census_breakdown(worlds.published.census.dataset) == census_breakdown(
        worlds.rebuilt.dataset
    )


def test_every_record_equals_the_rebuilds(worlds):
    census, rebuilt = worlds.published.census, worlds.rebuilt
    got_results, want_results = census.dataset.results, rebuilt.dataset.results
    assert [(r.site, r.rank, r.failure, r.final_host, r.pages_visited, len(r.requests))
            for r in got_results] == [
        (r.site, r.rank, r.failure, r.final_host, r.pages_visited, len(r.requests))
        for r in want_results
    ]
    gained = 0
    for got, want in zip(census.dataset.all_requests(), rebuilt.dataset.all_requests()):
        if got.v6_addresses != want.v6_addresses:
            # Only a gained AAAA's address may differ, and only within
            # the organization a rebuild's edge address belongs to.
            assert got.fqdn in census.published
            assert got.v6_addresses == (census.published[got.fqdn],)
            assert len(want.v6_addresses) == 1
            assert census.ecosystem.org_of_address(got.v6_addresses[0]) == (
                rebuilt.ecosystem.org_of_address(want.v6_addresses[0])
            )
            got = replace(got, v6_addresses=want.v6_addresses)
            gained += 1
        assert got == want
    assert gained


def test_cloud_and_dependencies_equal_the_rebuilds(worlds):
    published, reference = worlds.published, worlds.reference
    assert published.cloud == reference.cloud
    assert published.dependencies == reference.dependencies


def test_probe_frame_equals_the_rebuilds(worlds):
    got, want = worlds.published.observatory.frame, worlds.reference.observatory.frame
    assert (got.vantages, got.countries, got.targets) == (
        want.vantages, want.countries, want.targets,
    )
    assert got.data.tobytes() == want.data.tobytes()


def test_sweep_rows_equal_the_rebuilds(worlds):
    got, want = worlds.published_rows, worlds.reference_rows
    assert (got.scenarios, got.countries) == (want.scenarios, want.countries)
    assert got.data.tobytes() == want.data.tobytes()
    assert (got.d_readiness != 0).any() or (got.d_availability != 0).any()


def test_the_published_universe_is_the_baseline_one(worlds):
    census, baseline = worlds.published.census, worlds.baseline
    assert census.ecosystem is baseline.ecosystem
    assert census.dataset is not baseline.dataset and baseline.published == {}
    assert worlds.reference.census is worlds.rebuilt


@pytest.mark.parametrize(
    "sites, seed, site, status, gains",
    [
        (300, 17, "site42.org", SiteStatus.TLS_FAILURE, False),
        (200, 17, "site79.com.au", SiteStatus.UNKNOWN_PRIMARY, True),
    ],
)
def test_failed_sites_www(sites, seed, site, status, gains):
    """A TLS-failure site's www sits on a broken edge and gains nothing;
    an unknown-primary site's www is reachable and gains AAAA."""
    config = study_config(sites, seed)
    try:
        baseline = Study(config).census
        census = OverlayStudy(config, "dualstack:Amazon").census
    finally:
        clear_caches()
    plan = baseline.ecosystem.plan_of(site)
    www = plan.tenant.main_placement
    assert plan.status is status
    assert www.provider_name == "Amazon" and not www.has_aaaa
    assert (www.fqdn in census.published) is gains


#: A world no other test builds, so the build deltas below are exact.
GRID_WORLD = StudyConfig(
    days=3, sites=150, seed=1919, probe_targets=60, probe_interval_days=1, parallel=False,
)


def test_default_grid_builds_and_mutates_no_universe(constructions):
    """Counters, not timings: over a warm baseline the default grid
    constructs no universe, runs no crawl and leaves the shared baseline
    census byte-identical."""
    baseline = Study(GRID_WORLD)
    try:
        baseline.traffic, baseline.census, baseline.observatory
        digest = hashlib.sha256(pickle.dumps(baseline.census)).hexdigest()
        constructions.clear()
        before = counts("builds_total")
        run_sweep(baseline, None, parallel=False)
        deltas = counts("builds_total") - before
        assert constructions == {}
        assert deltas == {"whatif:traffic": 4, "whatif:census": 1, "whatif:observatory": 5}
        assert hashlib.sha256(pickle.dumps(baseline.census)).hexdigest() == digest
    finally:
        clear_caches()
