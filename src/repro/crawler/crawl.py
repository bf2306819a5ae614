"""The census driver: crawl every top-list site, record every request.

Reproduces the paper's section 4.1 methodology step by step:

1. load the entry's main page, following HTTP redirects (a failed main
   page classifies the whole site as a loading failure);
2. fetch every embedded resource and resolve nested dependencies to
   arbitrary depth (third parties pulling in further third parties);
3. pick up to five random links constrained to the same eTLD+1 and crawl
   those pages too;
4. record DNS outcomes, addresses, CNAME chains, and the Happy Eyeballs
   winner for every request.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.crawler.browser import BrowserConfig, SimulatedBrowser
from repro.crawler.records import (
    CrawlDataset,
    RequestRecord,
    SiteCrawlResult,
    SiteFailure,
)
from repro.happyeyeballs.algorithm import race_winners
from repro.net.addr import Family
from repro.net.dns import DnsStatus
from repro.util.rng import RngStream
from repro.web.ecosystem import SiteStatus, WebEcosystem
from repro.web.sites import Website

#: The paper clicks five random same-site links per site.
LINK_CLICKS = 5

#: Cap on nested dependency resolution, far above anything the synthetic
#: web produces; guards against dependency cycles.
MAX_DEPTH = 16


@dataclass(frozen=True)
class CensusConfig:
    """Census-run parameters."""

    link_clicks: int = LINK_CLICKS
    browser: BrowserConfig = BrowserConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.link_clicks < 0:
            raise ValueError("link_clicks must be non-negative")


class WebCensus:
    """Crawls a :class:`WebEcosystem` and produces a :class:`CrawlDataset`."""

    def __init__(self, ecosystem: WebEcosystem, config: CensusConfig | None = None) -> None:
        self.ecosystem = ecosystem
        self.config = config or CensusConfig()
        rng = RngStream(self.config.seed, "census")
        self._rng = rng
        self.browser = SimulatedBrowser(
            resolver=ecosystem.resolver,
            connectivity=ecosystem.connectivity,
            rng=rng.substream("browser"),
            config=self.config.browser,
        )

    def run(self) -> CrawlDataset:
        """Crawl every top-list entry in rank order."""
        results = [
            self.crawl_site(entry.etld1, entry.rank)
            for entry in self.ecosystem.toplist
        ]
        return CrawlDataset(results=results, list_id=self.ecosystem.toplist.list_id)

    def replay(
        self, dataset: CrawlDataset, changed: Mapping[str, bool]
    ) -> tuple[list[bool], list[Family | None]]:
        """Every request's AAAA flag and race winner were each FQDN in
        ``changed`` to have the AAAA it maps to (``dataset`` is this
        census's crawl).

        Which requests the crawl makes, and whether each succeeds, never
        depends on AAAA (a gained AAAA points at a reachable shared edge).
        The browser's slow-AAAA coins do: one per fetch whose AAAA answer
        has addresses, a failed site's unrecorded main-host fetch included.
        So the coins are redrawn and the succeeded requests' races re-run
        in closed form.  Both lists follow ``dataset.all_requests()``.
        """
        has_aaaa: list[bool] = []
        coins: list[int] = []  # the request behind each coin; -1 if unrecorded
        for result in dataset.results:
            plan = self.ecosystem.plans.get(result.site)
            if result.failure is not None and plan is not None and plan.status in (
                SiteStatus.TLS_FAILURE, SiteStatus.UNKNOWN_PRIMARY,
            ):
                main = plan.tenant.main_placement
                if changed.get(main.fqdn, main.has_aaaa):
                    coins.append(-1)
            for record in result.requests:
                aaaa = changed.get(record.fqdn, record.has_aaaa)
                if aaaa:
                    coins.append(len(has_aaaa))
                has_aaaa.append(aaaa)
        records = dataset.all_requests()
        browser, edges = self.config.browser, self.ecosystem.connectivity
        drawn = self._rng.substream("browser").generator().random(len(coins))
        slow = np.asarray(coins, dtype=np.int64)[drawn < browser.slow_aaaa_probability]
        v6_resolution = np.full(len(records), browser.dns_latency)
        v6_resolution[slow[slow >= 0]] = browser.slow_aaaa_latency
        winners = race_winners(
            np.where([r.has_a for r in records], edges.v4_latency, np.inf),
            np.where(has_aaaa, edges.v6_latency, np.inf),
            v6_resolution, browser.happy_eyeballs, browser.dns_latency,
        )
        return has_aaaa, [
            Family(int(won)) if r.succeeded else None for won, r in zip(winners, records)
        ]

    # -- per-site crawl ----------------------------------------------------

    def crawl_site(self, etld1: str, rank: int) -> SiteCrawlResult:
        result = SiteCrawlResult(site=etld1, rank=rank)
        plan = self.ecosystem.plans.get(etld1)
        website = plan.website if plan is not None else None

        final_host, failure, main_record = self._load_main_page(etld1, website, result)
        if failure is not None:
            result.failure = failure
            return result
        assert website is not None and final_host is not None and main_record is not None
        result.final_host = final_host
        result.requests.append(main_record)

        pages = [website.main_page]
        result.pages_visited.append("/")
        links = list(website.main_page.internal_links)
        # Five random same-site clicks (fewer if the page has fewer links).
        picked = self._rng.sample(links, self.config.link_clicks)
        for path in picked:
            page = website.page(path)
            if page is None:
                continue
            pages.append(page)
            result.pages_visited.append(path)

        seen_fqdns: set[str] = {final_host}
        for page in pages:
            for resource in page.resources:
                self._fetch_resource(
                    result, resource.fqdn, resource.resource_type, depth=0,
                    seen=seen_fqdns,
                )
        return result

    def _load_main_page(
        self, etld1: str, website: Website | None, result: SiteCrawlResult
    ):
        """Follow the redirect chain to the final main page.

        Returns (final_host, failure, main_record); failure is None on
        success.
        """
        psl = self.ecosystem.psl
        host = etld1
        redirects = website.redirects if website is not None else {}
        for _ in range(8):  # redirect-chain guard
            outcome = self.browser.fetch(host)
            if outcome.a_response.status is DnsStatus.NXDOMAIN and (
                outcome.aaaa_response.status is DnsStatus.NXDOMAIN
            ):
                if psl.same_site(host, etld1) or host == etld1:
                    return None, SiteFailure.NXDOMAIN, None
                # Redirected off-site into nothing: the paper's tiny
                # "Unknown Primary Domain" bucket.
                return None, SiteFailure.UNKNOWN_PRIMARY, None
            if outcome.dns_failed or not outcome.succeeded:
                return None, SiteFailure.OTHER, None
            target = redirects.get(host)
            if target is None:
                record = self._record_for(
                    result.site, host, None, outcome, is_main_page=True, depth=0
                )
                return host, None, record
            host = target
        return None, SiteFailure.OTHER, None  # redirect loop

    def _fetch_resource(
        self,
        result: SiteCrawlResult,
        fqdn: str,
        resource_type,
        depth: int,
        seen: set[str],
    ) -> None:
        """Fetch one resource and recurse into its nested dependencies."""
        if depth > MAX_DEPTH or fqdn in seen:
            return
        seen.add(fqdn)
        outcome = self.browser.fetch(fqdn)
        record = self._record_for(
            result.site, fqdn, resource_type, outcome, is_main_page=False, depth=depth
        )
        result.requests.append(record)
        # Arbitrary-depth resolution: third-party scripts can pull in
        # further third parties (ad syndication chains).
        pool = self.ecosystem.pool
        if pool is None or not record.succeeded:
            return
        etld1 = self.ecosystem.psl.etld_plus_one(fqdn)
        if etld1 is None or etld1 not in pool:
            return
        service = pool.get(etld1)
        for nested_domain in service.nested_dependencies:
            nested_tenant = self.ecosystem.tenants.get(nested_domain)
            if nested_tenant is None:
                continue
            placement = nested_tenant.placements[0]
            nested_service = pool.get(nested_domain)
            self._fetch_resource(
                result,
                placement.fqdn,
                nested_service.draw_resource_type(self._rng),
                depth=depth + 1,
                seen=seen,
            )

    def _record_for(
        self,
        site: str,
        fqdn: str,
        resource_type,
        outcome,
        is_main_page: bool,
        depth: int,
    ) -> RequestRecord:
        return RequestRecord(
            site=site,
            fqdn=fqdn,
            resource_type=resource_type,
            is_main_page=is_main_page,
            a_status=outcome.a_response.status,
            aaaa_status=outcome.aaaa_response.status,
            v4_addresses=outcome.a_response.addresses,
            v6_addresses=outcome.aaaa_response.addresses,
            cname_chain=outcome.a_response.chain,
            family_used=outcome.family_used,
            succeeded=outcome.succeeded,
            depth=depth,
        )
