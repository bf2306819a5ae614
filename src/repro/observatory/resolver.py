"""Per-vantage resolver views over the shared authoritative zones.

Every vantage point resolves against the *same* :class:`ZoneDatabase`
the census crawls (one ground truth), but through its own stub resolver
whose answers are shaped by the vantage's network policy:

* a ``LOSSY_RESOLVER`` vantage times out AAAA queries with some
  probability, so dual-stack targets intermittently look IPv4-only;
* a ``NAT64`` vantage runs DNS64: when a name has no real AAAA but does
  have an A record, it synthesizes ``64:ff9b::/96`` addresses embedding
  the IPv4 address (RFC 6147), which is how NAT64 eyeballs "reach"
  IPv4-only sites over IPv6.

Each vantage gets a fresh :class:`~repro.net.dns.Resolver` with the
ecosystem's injected failures copied in, so probing never perturbs the
crawler's resolver state (query counters included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import IpAddress
from repro.net.dns import DnsResponse, DnsStatus, Resolver, ZoneDatabase
from repro.observatory.vantage import NetworkPolicy, VantagePoint
from repro.util.rng import RngStream

#: The well-known DNS64/NAT64 prefix, 64:ff9b::/96 (RFC 6052).
NAT64_PREFIX = 0x0064FF9B << 96

#: When each answer arrives relative to query start, in seconds.  DNS64
#: synthesis waits for the A answer before fabricating the AAAA, which
#: is why NAT64 vantages forfeit part of IPv6's resolution head start.
A_RESOLUTION_TIME = 0.010
AAAA_RESOLUTION_TIME = 0.012
DNS64_SYNTHESIS_DELAY = 0.008


def nat64_synthesize(v4: IpAddress) -> IpAddress:
    """Map an IPv4 address into the NAT64 well-known prefix."""
    return IpAddress.v6(NAT64_PREFIX | v4.value)


def nat64_embedded_v4(v6: IpAddress) -> IpAddress | None:
    """The IPv4 address embedded in a NAT64-synthesized IPv6 address."""
    if v6.is_v6 and (v6.value >> 32) == (NAT64_PREFIX >> 32):
        return IpAddress.v4(v6.value & 0xFFFFFFFF)
    return None


def fresh_resolver(database: ZoneDatabase, forced_failures: dict[str, DnsStatus]) -> Resolver:
    """A new resolver over ``database`` with ``forced_failures`` copied in."""
    resolver = Resolver(database=database)
    for name, status in forced_failures.items():
        resolver.inject_failure(name, status)
    return resolver


@dataclass(frozen=True)
class VantageAnswer:
    """What one vantage's resolver handed the prober for one target.

    Attributes:
        a / aaaa: the raw responses (AAAA is the *policy-shaped* view:
            a lossy vantage reports TIMEOUT even though records exist).
        v4_addresses / v6_addresses: connectable addresses per family.
        aaaa_time: when the v6 answer became usable (DNS64 synthesis is
            slower than a real AAAA answer).
        synthesized: True when the v6 addresses are DNS64 fabrications.
    """

    a: DnsResponse
    aaaa: DnsResponse
    v4_addresses: tuple[IpAddress, ...]
    v6_addresses: tuple[IpAddress, ...]
    aaaa_time: float
    synthesized: bool

    @property
    def target_exists(self) -> bool:
        """The name resolved to *something* (either family answered)."""
        return bool(self.v4_addresses or self.v6_addresses)


@dataclass
class VantageResolver:
    """One vantage's stub resolver over the shared zone database."""

    vantage: VantagePoint
    resolver: Resolver = field(repr=False)

    @classmethod
    def over(
        cls,
        vantage: VantagePoint,
        database: ZoneDatabase,
        forced_failures: dict[str, DnsStatus] | None = None,
    ) -> "VantageResolver":
        """A fresh per-vantage resolver sharing ``database``.

        ``forced_failures`` (the ecosystem's injected SERVFAILs and
        timeouts) are copied, not shared, so probe-side bookkeeping
        cannot leak into the crawler's resolver.
        """
        return cls(vantage=vantage, resolver=fresh_resolver(database, forced_failures or {}))

    def resolve_target(
        self,
        host: str,
        rng: RngStream,
        overlay_v6: tuple[IpAddress, ...] = (),
    ) -> VantageAnswer:
        """The dual-stack query pair, as this vantage's network sees it.

        ``overlay_v6`` models mid-window adoption (the takeoff): AAAA
        records the target published *after* the universe was built.
        They behave exactly like authoritative answers -- a lossy
        vantage can still time the query out, and NAT64 synthesis is
        suppressed by their presence.
        """
        a, aaaa = self.resolver.resolve_addresses(host)
        policy = self.vantage.policy
        aaaa_time = AAAA_RESOLUTION_TIME
        synthesized = False

        lost = (
            policy is NetworkPolicy.LOSSY_RESOLVER
            and aaaa.status is DnsStatus.NOERROR
            and rng.bernoulli(self.vantage.aaaa_loss_rate)
        )
        if lost:
            aaaa = DnsResponse(
                DnsStatus.TIMEOUT, (), aaaa.chain, aaaa.question
            )

        v4_addresses = a.addresses if a.status is DnsStatus.NOERROR else ()
        v6_addresses = aaaa.addresses if aaaa.status is DnsStatus.NOERROR else ()

        if overlay_v6 and not v6_addresses and v4_addresses and not lost:
            v6_addresses = overlay_v6

        if policy is NetworkPolicy.NAT64 and not v6_addresses and v4_addresses:
            v6_addresses = tuple(nat64_synthesize(v4) for v4 in v4_addresses)
            aaaa_time = A_RESOLUTION_TIME + DNS64_SYNTHESIS_DELAY
            synthesized = True

        return VantageAnswer(
            a=a,
            aaaa=aaaa,
            v4_addresses=v4_addresses,
            v6_addresses=v6_addresses,
            aaaa_time=aaaa_time,
            synthesized=synthesized,
        )
