"""The simulated dual-stack browser.

One :meth:`SimulatedBrowser.fetch` does what a Firefox under OpenWPM does
per request: query A and AAAA in parallel, run Happy Eyeballs over the
answers, and attempt the handshake.  DNS answers are cached per census run
(browsers and their resolvers cache aggressively; the paper's census also
sees each FQDN's DNS state once per crawl).

The paper's methodology note (section 4.2) applies here: classification
uses *availability* (does AAAA exist), not which family won the race, so
the occasional IPv4 win does not misclassify a site -- but the winner is
recorded, because Figure 5's "Browser Used IPv4" row reports exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.happyeyeballs.algorithm import (
    Connectivity,
    HappyEyeballs,
    HappyEyeballsConfig,
)
from repro.net.addr import Family
from repro.net.dns import DnsResponse, Resolver
from repro.util.rng import RngStream


@dataclass(frozen=True)
class BrowserConfig:
    """Browser-level knobs.

    ``slow_aaaa_probability`` is the chance an AAAA answer misses the
    RFC 8305 resolution-delay window, handing the race to IPv4; it is the
    mechanism behind the paper's ~1-in-10 "Browser Used IPv4" page loads.
    """

    slow_aaaa_probability: float = 0.008
    slow_aaaa_latency: float = 0.200
    dns_latency: float = 0.010
    happy_eyeballs: HappyEyeballsConfig = HappyEyeballsConfig()

    def __post_init__(self) -> None:
        if not 0.0 <= self.slow_aaaa_probability <= 1.0:
            raise ValueError("slow_aaaa_probability must be a probability")
        if self.slow_aaaa_latency < 0 or self.dns_latency < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class FetchOutcome:
    """The observable outcome of fetching one URL."""

    fqdn: str
    a_response: DnsResponse
    aaaa_response: DnsResponse
    family_used: Family | None
    succeeded: bool

    @property
    def dns_failed(self) -> bool:
        """Neither family yielded a usable answer."""
        return not self.a_response.addresses and not self.aaaa_response.addresses


class SimulatedBrowser:
    """A dual-stack browser over the simulated resolver and network."""

    def __init__(
        self,
        resolver: Resolver,
        connectivity: Connectivity,
        rng: RngStream,
        config: BrowserConfig | None = None,
    ) -> None:
        self._resolver = resolver
        self._connectivity = connectivity
        self._rng = rng
        self.config = config or BrowserConfig()
        self._he = HappyEyeballs(self.config.happy_eyeballs)
        self._dns_cache: dict[str, tuple[DnsResponse, DnsResponse]] = {}

    def resolve(self, fqdn: str) -> tuple[DnsResponse, DnsResponse]:
        """A and AAAA responses for ``fqdn``, cached per census."""
        cached = self._dns_cache.get(fqdn)
        if cached is None:
            cached = self._resolver.resolve_addresses(fqdn)
            self._dns_cache[fqdn] = cached
        return cached

    def fetch(self, fqdn: str) -> FetchOutcome:
        """Resolve and fetch one URL's host."""
        a_response, aaaa_response = self.resolve(fqdn)
        v4 = list(a_response.addresses)
        v6 = list(aaaa_response.addresses)
        if not v4 and not v6:
            return FetchOutcome(
                fqdn=fqdn,
                a_response=a_response,
                aaaa_response=aaaa_response,
                family_used=None,
                succeeded=False,
            )
        aaaa_time = self.config.dns_latency
        if v6 and self._rng.bernoulli(self.config.slow_aaaa_probability):
            aaaa_time = self.config.slow_aaaa_latency
        result = self._he.connect(
            v4,
            v6,
            self._connectivity,
            v4_resolution_time=self.config.dns_latency,
            v6_resolution_time=aaaa_time,
        )
        return FetchOutcome(
            fqdn=fqdn,
            a_response=a_response,
            aaaa_response=aaaa_response,
            family_used=result.used_family,
            succeeded=result.connected,
        )
