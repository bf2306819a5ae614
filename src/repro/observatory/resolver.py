"""DNS as the vantage points see it: NAT64 synthesis and answer timing.

Every vantage point resolves against the *same* :class:`ZoneDatabase`
the census crawls (one ground truth), but its answers are shaped by the
vantage's network policy:

* a ``LOSSY_RESOLVER`` vantage times out AAAA queries with some
  probability, so dual-stack targets intermittently look IPv4-only;
* a ``NAT64`` vantage runs DNS64: when a name has no real AAAA but does
  have an A record, it synthesizes ``64:ff9b::/96`` addresses embedding
  the IPv4 address (RFC 6147), which is how NAT64 eyeballs "reach"
  IPv4-only sites over IPv6.

Probing resolves through a fresh :class:`~repro.net.dns.Resolver` with
the ecosystem's injected failures copied in (:func:`fresh_resolver`),
so it never perturbs the crawler's resolver state (query counters
included).
"""

from __future__ import annotations

from repro.net.addr import IpAddress
from repro.net.dns import DnsStatus, Resolver, ZoneDatabase

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
