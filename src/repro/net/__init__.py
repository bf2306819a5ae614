"""Network substrate: addresses, routing, and naming.

This package implements the pieces of Internet infrastructure the paper's
measurement pipelines depend on:

* :mod:`repro.net.addr` -- IPv4/IPv6 addresses, prefixes, and allocation
  pools with a uniform integer representation.
* :mod:`repro.net.asn` -- the AS registry and the AS-to-Organization
  mapping (the role CAIDA's as2org dataset plays in the paper).
* :mod:`repro.net.bgp` -- a routing information base with longest-prefix
  match, used to attribute an IP address to its origin AS.
* :mod:`repro.net.dns` -- authoritative zones, A/AAAA/CNAME/PTR records,
  and a resolver that follows CNAME chains.
* :mod:`repro.net.rdns` -- reverse DNS used for domain-level client
  analysis (paper section 3.4).
* :mod:`repro.net.psl` -- the Public Suffix List algorithm and eTLD+1
  extraction (paper sections 4.1 and 5.2).

The paper anonymized client addresses with CryptoPAN before upload
(appendix A).  Nothing downstream reads an anonymized address, so that
step is not modelled.
"""

from repro.net.addr import AddressPool, Family, IpAddress, Prefix
from repro.net.asn import AsInfo, AsRegistry, Organization
from repro.net.bgp import Announcement, RoutingTable
from repro.net.dns import (
    DnsError,
    DnsRecordType,
    DnsResponse,
    DnsStatus,
    Resolver,
    Zone,
    ZoneDatabase,
)
from repro.net.psl import PublicSuffixList, default_psl
from repro.net.rdns import ReverseDns

__all__ = [
    "AddressPool",
    "Family",
    "IpAddress",
    "Prefix",
    "AsInfo",
    "AsRegistry",
    "Organization",
    "Announcement",
    "RoutingTable",
    "DnsError",
    "DnsRecordType",
    "DnsResponse",
    "DnsStatus",
    "Resolver",
    "Zone",
    "ZoneDatabase",
    "PublicSuffixList",
    "default_psl",
    "ReverseDns",
]
