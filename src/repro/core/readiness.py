"""Graded website IPv6 readiness (paper section 4.2).

Classifies each crawled site into the paper's categories:

* **loading-failure** (NXDOMAIN, or DNS/TLS/connection errors): the site
  never loaded; excluded from readiness percentages.
* **IPv4-only**: the main page's domain has no AAAA record.
* **IPv6-partial**: the main page is IPv6-reachable but at least one
  successfully fetched resource is IPv4-only.
* **IPv6-full**: the main page and every fetched resource have AAAA.

Per the paper's methodology, resources that failed to load are excluded
(their failures are orthogonal to IP version), and classification uses
IPv6 *availability*, not which family won the Happy Eyeballs race -- the
race winner is reported separately ("Browser Used IPv4" in Figure 5).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.crawler.records import CrawlDataset, SiteCrawlResult, SiteFailure
from repro.net.addr import Family


class SiteClass(enum.Enum):
    LOADING_FAILURE_NXDOMAIN = "loading-failure-nxdomain"
    LOADING_FAILURE_OTHER = "loading-failure-other"
    UNKNOWN_PRIMARY = "unknown-primary-domain"
    IPV4_ONLY = "ipv4-only"
    IPV6_PARTIAL = "ipv6-partial"
    IPV6_FULL = "ipv6-full"


def classify_site(
    result: SiteCrawlResult, has_aaaa: Sequence[bool] | None = None
) -> SiteClass:
    """Classify one crawled site per the paper's scheme (``has_aaaa``
    overrides its requests' AAAA availability, in request order)."""
    if result.failure is SiteFailure.NXDOMAIN:
        return SiteClass.LOADING_FAILURE_NXDOMAIN
    if result.failure is SiteFailure.UNKNOWN_PRIMARY:
        return SiteClass.UNKNOWN_PRIMARY
    if result.failure is SiteFailure.OTHER:
        return SiteClass.LOADING_FAILURE_OTHER
    flags = [r.has_aaaa for r in result.requests] if has_aaaa is None else has_aaaa
    rows = list(zip(result.requests, flags))
    main = next((aaaa for r, aaaa in rows if r.is_main_page), None)
    if main is None:  # pragma: no cover - connected results always have one
        return SiteClass.LOADING_FAILURE_OTHER
    if not main:
        return SiteClass.IPV4_ONLY
    if all(aaaa for r, aaaa in rows if r.resource_type is not None and r.succeeded):
        return SiteClass.IPV6_FULL
    return SiteClass.IPV6_PARTIAL


def browser_used_ipv4(
    result: SiteCrawlResult, family_used: Sequence[Family | None] | None = None
) -> bool:
    """True when any successful request of the site went over IPv4
    (``family_used`` overrides its requests' race winners, in order)."""
    if family_used is None:
        family_used = [r.family_used for r in result.requests]
    return any(
        f is Family.V4 for r, f in zip(result.requests, family_used) if r.succeeded
    )


@dataclass
class CensusBreakdown:
    """Figure 5's table: counts at each stage of the classification."""

    total: int = 0
    nxdomain: int = 0
    other_failure: int = 0
    connection_success: int = 0
    unknown_primary: int = 0
    ipv4_only: int = 0
    aaaa_enabled: int = 0
    ipv6_partial: int = 0
    ipv6_full: int = 0
    browser_used_ipv4: int = 0
    browser_used_ipv6_only: int = 0
    sites_by_class: dict[SiteClass, list[str]] = field(default_factory=dict)

    def share_of_connected(self, count: int) -> float:
        return count / self.connection_success if self.connection_success else 0.0

    def check_invariants(self) -> None:
        """The partition identities of Figure 5 must hold exactly."""
        if self.total != self.nxdomain + self.other_failure + self.connection_success:
            raise AssertionError("connection-success partition violated")
        classified = self.unknown_primary + self.ipv4_only + self.aaaa_enabled
        if self.connection_success != classified:
            raise AssertionError("classification partition violated")
        if self.aaaa_enabled != self.ipv6_partial + self.ipv6_full:
            raise AssertionError("AAAA-enabled partition violated")
        if self.ipv6_full != self.browser_used_ipv4 + self.browser_used_ipv6_only:
            raise AssertionError("browser-family partition violated")


def census_breakdown(
    dataset: CrawlDataset,
    has_aaaa: Sequence[bool] | None = None,
    family_used: Sequence[Family | None] | None = None,
) -> CensusBreakdown:
    """Aggregate a census run into Figure 5's table.  ``has_aaaa`` and
    ``family_used`` override every request's AAAA availability and race
    winner, in ``dataset.all_requests()`` order (a longitudinal round's
    :meth:`~repro.crawler.crawl.WebCensus.replay`)."""
    breakdown = CensusBreakdown(total=len(dataset.results))
    end = 0
    for result in dataset.results:
        start, end = end, end + len(result.requests)
        site_family = None if family_used is None else family_used[start:end]
        site_class = classify_site(
            result, None if has_aaaa is None else has_aaaa[start:end]
        )
        breakdown.sites_by_class.setdefault(site_class, []).append(result.site)
        if site_class is SiteClass.LOADING_FAILURE_NXDOMAIN:
            breakdown.nxdomain += 1
            continue
        if site_class is SiteClass.LOADING_FAILURE_OTHER:
            breakdown.other_failure += 1
            continue
        breakdown.connection_success += 1
        if site_class is SiteClass.UNKNOWN_PRIMARY:
            breakdown.unknown_primary += 1
        elif site_class is SiteClass.IPV4_ONLY:
            breakdown.ipv4_only += 1
        else:
            breakdown.aaaa_enabled += 1
            if site_class is SiteClass.IPV6_PARTIAL:
                breakdown.ipv6_partial += 1
            else:
                breakdown.ipv6_full += 1
                if browser_used_ipv4(result, site_family):
                    breakdown.browser_used_ipv4 += 1
                else:
                    breakdown.browser_used_ipv6_only += 1
    breakdown.check_invariants()
    return breakdown


@dataclass(frozen=True)
class TopNRow:
    """One bar of Figure 6."""

    n: int
    classified: int
    ipv4_only: int
    ipv6_partial: int
    ipv6_full: int

    @property
    def ipv6_full_share(self) -> float:
        return self.ipv6_full / self.classified if self.classified else 0.0

    @property
    def ipv4_only_share(self) -> float:
        return self.ipv4_only / self.classified if self.classified else 0.0

    @property
    def ipv6_partial_share(self) -> float:
        return self.ipv6_partial / self.classified if self.classified else 0.0


def top_n_breakdown(
    dataset: CrawlDataset, ns: tuple[int, ...] = (100, 1000, 10000, 100000)
) -> list[TopNRow]:
    """Figure 6: readiness of the top-N slices of the list."""
    classes = {
        result.site: (result.rank, classify_site(result))
        for result in dataset.results
    }
    rows = []
    for n in ns:
        counts = {SiteClass.IPV4_ONLY: 0, SiteClass.IPV6_PARTIAL: 0, SiteClass.IPV6_FULL: 0}
        for rank, site_class in classes.values():
            if rank <= n and site_class in counts:
                counts[site_class] += 1
        classified = sum(counts.values())
        if classified == 0:
            continue
        rows.append(
            TopNRow(
                n=n,
                classified=classified,
                ipv4_only=counts[SiteClass.IPV4_ONLY],
                ipv6_partial=counts[SiteClass.IPV6_PARTIAL],
                ipv6_full=counts[SiteClass.IPV6_FULL],
            )
        )
    return rows
