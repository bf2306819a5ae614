"""The service-side universe the residences talk to.

Builds, from a service catalog, everything the client-side analyses need to
attribute traffic the way the paper does:

* an :class:`~repro.net.asn.AsRegistry` with every service's AS,
* a BGP :class:`~repro.net.bgp.RoutingTable` announcing each service's
  prefixes under its origin AS (the paper's address-to-AS mapping), and
* :class:`~repro.net.rdns.ReverseDns` PTR records under each service's
  domain (the paper's address-to-domain mapping).

Each service gets a fleet of servers; a deterministic share of the fleet is
dual-stack according to the service's ``ipv6_support``, so "how much IPv6
can this service do" is a property of the universe, observable by clients
through DNS-free server selection (clients pick a server, then Happy
Eyeballs picks the family among that server's addresses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addr import AddressPool, IpAddress, Prefix
from repro.net.asn import AsRegistry
from repro.net.bgp import RoutingTable
from repro.net.rdns import ReverseDns
from repro.traffic.apps import ServiceProfile


@dataclass(frozen=True)
class ServerEndpoint:
    """One server of a service: an IPv4 address, optionally an IPv6 one."""

    service: ServiceProfile
    v4: IpAddress
    v6: IpAddress | None

    @property
    def dual_stack(self) -> bool:
        return self.v6 is not None


class ServiceUniverse:
    """Allocates addresses and attribution data for a service catalog."""

    #: Carve service prefixes out of these supernets.
    V4_SUPERNET = Prefix.parse("100.64.0.0/10")
    V6_SUPERNET = Prefix.parse("2400::/12")

    def __init__(self, catalog: list[ServiceProfile]) -> None:
        if not catalog:
            raise ValueError("catalog must not be empty")
        self.catalog = list(catalog)
        self.registry = AsRegistry()
        self.routing = RoutingTable()
        self.rdns = ReverseDns()
        self._servers: dict[str, list[ServerEndpoint]] = {}
        self._build()

    def _build(self) -> None:
        for index, service in enumerate(self.catalog):
            if self.registry.lookup(service.asn) is None:
                self.registry.register(
                    service.asn,
                    service.as_name,
                    org_id=service.as_name.lower(),
                    category=service.category,
                )
            v4_prefix = self.V4_SUPERNET.subnet(24, index)
            v6_prefix = self.V6_SUPERNET.subnet(48, index)
            self.routing.announce(v4_prefix, service.asn)
            self.routing.announce(v6_prefix, service.asn)
            v4_pool = AddressPool(v4_prefix)
            v6_pool = AddressPool(v6_prefix.subnet(120, 0), skip_network_address=True)
            servers: list[ServerEndpoint] = []
            # Deterministic dual-stack share: the first round(support * n)
            # servers get AAAA, so the fleet's support ratio is exact.
            dual_stack_count = round(service.ipv6_support * service.num_servers)
            for server_index in range(service.num_servers):
                v4 = v4_pool.allocate()
                v6 = v6_pool.allocate() if server_index < dual_stack_count else None
                host = f"server-{server_index}.{service.domain}"
                self.rdns.register(v4, host)
                if v6 is not None:
                    self.rdns.register(v6, host)
                servers.append(ServerEndpoint(service=service, v4=v4, v6=v6))
            self._servers[service.name] = servers

    def servers_of(self, service: ServiceProfile) -> list[ServerEndpoint]:
        return self._servers[service.name]

    def __len__(self) -> int:
        return len(self.catalog)
