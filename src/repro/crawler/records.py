"""Crawl record types: what the census writes down per request and per site.

The downstream analyses only see these records -- classification
(section 4.2), dependency analysis (section 4.3), and the cloud study
(section 5) all consume :class:`RequestRecord` streams, mirroring how the
paper's pipeline works from OpenWPM's request logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.addr import Family, IpAddress
from repro.net.dns import DnsStatus
from repro.web.resources import ResourceType


class SiteFailure(enum.Enum):
    """Why a site failed to load entirely (Figure 5's failure rows)."""

    NXDOMAIN = "nxdomain"
    OTHER = "other"  # SERVFAIL, timeouts, TLS/connection failures
    UNKNOWN_PRIMARY = "unknown-primary"


@dataclass(frozen=True)
class RequestRecord:
    """One resource request made while crawling a site.

    Attributes:
        site: the crawled site's eTLD+1 (census unit).
        fqdn: the requested host (post-redirect for pages).
        resource_type: what the browser asked for; None for page HTML.
        is_main_page: True for the site's landing page request.
        a_status / aaaa_status: DNS outcome per family.
        v4_addresses / v6_addresses: resolver answers.
        cname_chain: the full CNAME chain of the A query (service
            fingerprinting input).
        family_used: which family carried the bytes (Happy Eyeballs
            winner); None when the fetch failed.
        succeeded: resource retrieved completely.
        depth: dependency depth (0 = referenced directly by a page).
    """

    site: str
    fqdn: str
    resource_type: ResourceType | None
    is_main_page: bool
    a_status: DnsStatus
    aaaa_status: DnsStatus
    v4_addresses: tuple[IpAddress, ...]
    v6_addresses: tuple[IpAddress, ...]
    cname_chain: tuple[str, ...]
    family_used: Family | None
    succeeded: bool
    depth: int = 0

    @property
    def has_a(self) -> bool:
        return bool(self.v4_addresses)

    @property
    def has_aaaa(self) -> bool:
        return bool(self.v6_addresses)

    @property
    def ipv6_capable(self) -> bool:
        """The resource could be fetched over IPv6 (AAAA exists)."""
        return self.has_aaaa


@dataclass
class SiteCrawlResult:
    """Everything recorded while crawling one top-list entry."""

    site: str
    rank: int
    failure: SiteFailure | None = None
    final_host: str | None = None
    pages_visited: list[str] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)

    @property
    def connected(self) -> bool:
        return self.failure is None

    def resource_requests(self) -> list[RequestRecord]:
        """Sub-resource requests (everything but page HTML)."""
        return [r for r in self.requests if r.resource_type is not None]

    def main_page_request(self) -> RequestRecord | None:
        for record in self.requests:
            if record.is_main_page:
                return record
        return None


@dataclass
class CrawlDataset:
    """A full census run: one result per top-list entry, in rank order."""

    results: list[SiteCrawlResult]
    list_id: str = "SYNTH"

    def connected_results(self) -> list[SiteCrawlResult]:
        return [r for r in self.results if r.connected]

    def all_requests(self) -> list[RequestRecord]:
        return [record for result in self.results for record in result.requests]

    def unique_fqdns(self) -> set[str]:
        return {record.fqdn for record in self.all_requests()}

    def __len__(self) -> int:
        return len(self.results)
