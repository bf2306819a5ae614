"""The census is pinned: its crawl and its universe, built and stored.

Two SHA-256 digests per config pin what a census build produces: the
crawl (every site result and every request it made) and the universe
the crawl walked (every plan's status and every website's pages,
resources, links and redirects).  A change to how the universe holds
its objects, or to how the warehouse codec stores them, must leave both
digests unchanged, on the built census and on its store round trip.
"""

import hashlib

import pytest

from repro.datasets.scenarios import build_census
from repro.store.serialize import dump_value, load_value

#: ``(num_sites, seed)`` -> SHA-256 of ``build_census``'s crawl (see
#: ``crawl_digest``).
CRAWL_SHA256 = {
    (300, 8): "3d4a1a35afd909a2068413aebe80f89dc6811dda006d0e58092ebdf583a0cab2",
    (120, 3): "39b53b01c1e90c01e945dfcf41c87e11c94de83a35bc756822296804f5691ead",
}

#: ``(num_sites, seed)`` -> SHA-256 of ``build_census``'s universe (see
#: ``universe_digest``).
UNIVERSE_SHA256 = {
    (300, 8): "bcc3ef7055312d8f712967fcf4718be19df22d2a079a8f63c0a36e7f7a9be9e3",
    (120, 3): "33caf31b68f547beacc25623911fb785774ccf79b68b85d5f60d654f34e3ce42",
}


def _value(member):
    return None if member is None else member.value


def crawl_digest(dataset) -> str:
    """Each result's site, rank, failure, final host and pages visited,
    then each of its requests' fields, in crawl order."""
    digest = hashlib.sha256()
    for result in dataset.results:
        digest.update(repr((
            result.site, result.rank, _value(result.failure),
            result.final_host, tuple(result.pages_visited),
        )).encode())
        for r in result.requests:
            digest.update(repr((
                r.site, r.fqdn, _value(r.resource_type), r.is_main_page,
                r.a_status.value, r.aaaa_status.value,
                tuple(map(str, r.v4_addresses)), tuple(map(str, r.v6_addresses)),
                r.cname_chain, _value(r.family_used), r.succeeded, r.depth,
            )).encode())
    return digest.hexdigest()


def universe_digest(ecosystem) -> str:
    """Each plan's status, then its website's main host, redirects and
    pages (path, ``(fqdn, type)`` resources, internal links)."""
    digest = hashlib.sha256()
    for etld1, plan in ecosystem.plans.items():
        digest.update(repr((etld1, plan.status.value)).encode())
        website = plan.website
        if website is None:
            continue
        digest.update(repr((website.main_host, tuple(website.redirects.items()))).encode())
        for path, page in website.pages.items():
            digest.update(repr((
                path,
                tuple((r.fqdn, r.resource_type.value) for r in page.resources),
                tuple(page.internal_links),
            )).encode())
    return digest.hexdigest()


@pytest.fixture(
    scope="module", params=sorted(CRAWL_SHA256), ids=lambda c: f"{c[0]}-sites-seed-{c[1]}"
)
def census(request):
    num_sites, seed = request.param
    return request.param, build_census(num_sites, seed=seed)


class TestCensusPins:
    def test_crawl_matches_the_pin(self, census):
        config, study = census
        assert crawl_digest(study.dataset) == CRAWL_SHA256[config]

    def test_universe_matches_the_pin(self, census):
        config, study = census
        assert universe_digest(study.ecosystem) == UNIVERSE_SHA256[config]

    def test_store_round_trip_matches_the_pins(self, census):
        config, study = census
        loaded = load_value(dump_value(study))
        assert crawl_digest(loaded.dataset) == CRAWL_SHA256[config]
        assert universe_digest(loaded.ecosystem) == UNIVERSE_SHA256[config]
