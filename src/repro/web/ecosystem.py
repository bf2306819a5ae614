"""Assembly of the full synthetic web universe.

:class:`WebEcosystem` wires every substrate together into the world the
census crawls:

* a ranked :class:`~repro.web.toplist.TopList`, some entries dead
  (NXDOMAIN) or failing (SERVFAIL/timeout/TLS) as in Figure 5's
  loading-failure rows;
* live sites as cloud :class:`~repro.cloud.tenancy.Tenant`\\ s whose
  subdomains CNAME onto provider service suffixes and resolve to shared
  edge addresses, announced in BGP under the provider's organizations;
* a :class:`~repro.web.resources.ThirdPartyPool` whose services are
  themselves cloud tenants, giving third-party resources their IPv6
  status through the same provider-policy machinery;
* websites with multiple pages, same-site links, first- and third-party
  embedded resources, and redirect chains.

Everything is derived deterministically from one seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.cloud.providers import CloudProvider, CloudService, build_provider_catalog
from repro.cloud.tenancy import Tenant, TenantPlanner
from repro.happyeyeballs.algorithm import Connectivity
from repro.net.addr import AddressPool, Family, IpAddress, Prefix
from repro.net.asn import AsCategory, AsRegistry
from repro.net.bgp import RoutingTable
from repro.net.dns import DnsRecordType, DnsStatus, Resolver, ZoneDatabase
from repro.net.psl import PublicSuffixList, default_psl
from repro.net.rdns import ReverseDns
from repro.util.rng import RngStream
from repro.web.resources import (
    CATEGORY_IPV6_RATE,
    ResourceCategory,
    ResourceType,
    ThirdPartyPool,
    ThirdPartyService,
)
from repro.web.sites import EmbeddedResource, Page, Website
from repro.web.toplist import TopList, TopListEntry


class SiteStatus(enum.Enum):
    """Ground-truth fate of a top-list entry (for verification only --
    the crawler discovers these through DNS and connections)."""

    OK = "ok"
    NXDOMAIN = "nxdomain"
    DNS_FAILURE = "dns-failure"
    TIMEOUT = "timeout"
    TLS_FAILURE = "tls-failure"
    UNKNOWN_PRIMARY = "unknown-primary"


@dataclass(frozen=True)
class WebEcosystemConfig:
    """Tunable knobs of the synthetic web.

    Defaults are calibrated so the census reproduces Figure 5's shape:
    ~18% loading failures, ~58% of reachable sites IPv4-only, ~30%
    IPv6-partial, ~12% IPv6-full, with Figure 6's rank gradient.
    """

    num_sites: int = 2000
    seed: int = 0
    nxdomain_rate: float = 0.134
    dns_failure_rate: float = 0.020
    timeout_rate: float = 0.012
    tls_failure_rate: float = 0.014
    unknown_primary_rate: float = 0.0015
    monetized_rate: float = 0.62  # share of sites carrying ads/trackers
    monetized_ad_services: float = 5.0  # mean ad/tracker services if monetized
    monetized_other_services: float = 4.0  # mean non-ad services if monetized
    lean_services: float = 3.0  # mean non-ad services on ad-free sites
    mean_subdomains: float = 3.2
    pages_per_site: int = 8
    first_party_resources_per_page: float = 3.0
    third_party_spread: float = 0.75  # share of a site's 3p set on each page
    head_services_per_kilosite: float = 50.0
    tail_services_per_site: float = 0.9
    version_split_rate: float = 0.004  # sites with intentional v4-only subdomains
    inclination_base: float = 0.48
    inclination_rank_gain: float = 0.62
    inclination_noise: float = 0.18

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        rates = (
            self.nxdomain_rate, self.dns_failure_rate, self.timeout_rate,
            self.tls_failure_rate, self.unknown_primary_rate,
        )
        if any(not 0.0 <= r <= 1.0 for r in rates) or sum(rates) >= 1.0:
            raise ValueError("failure rates must be probabilities summing below 1")
        if self.pages_per_site < 1:
            raise ValueError("pages_per_site must be >= 1")


@dataclass
class SitePlan:
    """Ground truth for one top-list entry."""

    entry: TopListEntry
    status: SiteStatus
    tenant: Tenant | None = None
    website: Website | None = None
    third_parties: list[ThirdPartyService] = field(default_factory=list)


@dataclass
class _EdgeConnectivity:
    """Connectivity oracle: fast everywhere except blacklisted hosts."""

    unreachable: set[IpAddress] = field(default_factory=set)
    v4_latency: float = 0.032
    v6_latency: float = 0.028

    def connect_latency(self, address: IpAddress) -> float | None:
        if address in self.unreachable:
            return None
        return self.v6_latency if address.family is Family.V6 else self.v4_latency


# Static type check hook: _EdgeConnectivity satisfies the HE protocol.
_connectivity_check: Connectivity = _EdgeConnectivity()


def site_inclination(base: float, rank_term: float, noise: float) -> float:
    """A site tenant's IPv6 inclination: the population's ``base`` plus
    its rank term and noise draw, clamped to [0, 1]."""
    return min(1.0, max(0.0, (base + rank_term) + noise))


@dataclass
class AdoptionTable:
    """What every site tenant's IPv6 adoption was decided from, so one
    universe re-decides at any ``inclination_base`` as a rebuild would.

    Columns: per live site its ``rank_term`` and ``noise``; per
    tenant-service decision its ``site`` row, ``service`` and
    ``uniform``; per site placement its ``fqdn`` and ``decision`` row.
    (Third parties are forced: they decide nothing.)
    """

    rank_term: list[float] = field(default_factory=list)
    noise: list[float] = field(default_factory=list)
    site: list[int] = field(default_factory=list)
    service: list[CloudService] = field(default_factory=list)
    uniform: list[float | None] = field(default_factory=list)
    fqdn: list[str] = field(default_factory=list)
    decision: list[int] = field(default_factory=list)

    def record(
        self, tenant: Tenant, rank_term: float, noise: float,
        uniforms: dict[str, float | None],
    ) -> None:
        """Append one site tenant and the uniforms its placement drew."""
        site = len(self.rank_term)
        self.rank_term.append(rank_term)
        self.noise.append(noise)
        rows: dict[str, int] = {}
        for placement in tenant.placements:
            suffix = placement.service.cname_suffix
            if suffix not in rows:
                rows[suffix] = len(self.service)
                self.site.append(site)
                self.service.append(placement.service)
                self.uniform.append(uniforms[suffix])
            self.fqdn.append(placement.fqdn)
            self.decision.append(rows[suffix])

    def decisions_at(self, base: float) -> dict[str, bool]:
        """Every site placement's AAAA, re-decided at inclination ``base``."""
        inclination = [
            site_inclination(base, rank_term, noise)
            for rank_term, noise in zip(self.rank_term, self.noise)
        ]
        enabled = [
            service.enables_ipv6_at(inclination[site], uniform)
            for site, service, uniform in zip(self.site, self.service, self.uniform)
        ]
        return {fqdn: enabled[row] for fqdn, row in zip(self.fqdn, self.decision)}

    def changed_aaaa(self, base: float, other: float) -> dict[str, bool]:
        """``{fqdn: has_aaaa}`` at ``other`` for the placements whose
        decision differs from ``base``'s; every other placement keeps
        whatever AAAA its universe gave it."""
        before, after = self.decisions_at(base), self.decisions_at(other)
        return {fqdn: aaaa for fqdn, aaaa in after.items() if aaaa != before[fqdn]}


#: First-party resource type mix.
_FIRST_PARTY_TYPES: dict[ResourceType, float] = {
    ResourceType.IMAGE: 4.0,
    ResourceType.SCRIPT: 2.5,
    ResourceType.STYLESHEET: 1.5,
    ResourceType.MEDIA: 0.7,
    ResourceType.FONT: 0.6,
}

_V4_SUPERNET = Prefix.parse("4.0.0.0/6")
_V6_SUPERNET = Prefix.parse("2600::/16")


class WebEcosystem:
    """The assembled synthetic web universe."""

    def __init__(self, config: WebEcosystemConfig | None = None) -> None:
        self.config = config or WebEcosystemConfig()
        self._rng = RngStream(self.config.seed, "web-ecosystem")
        self.psl: PublicSuffixList = default_psl()
        self.providers: list[CloudProvider] = build_provider_catalog()
        self.registry = AsRegistry()
        self.routing = RoutingTable()
        self.rdns = ReverseDns()
        self.zones = ZoneDatabase()
        self.resolver = Resolver(database=self.zones)
        self.connectivity = _EdgeConnectivity()
        self.toplist = TopList.generate(
            self.config.num_sites, self._rng.substream("toplist")
        )
        self.plans: dict[str, SitePlan] = {}
        self.tenants: dict[str, Tenant] = {}
        self.pool: ThirdPartyPool | None = None
        self.adoption = AdoptionTable()
        self._edges: dict[tuple[str, Family], list[IpAddress]] = {}
        self._edge_cursor: dict[tuple[str, Family], int] = {}
        self._org_pools: dict[tuple[str, Family], AddressPool] = {}
        self._service_by_suffix: dict[str, tuple[CloudProvider, CloudService]] = {}
        self._tenant_counter = 0
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        self._register_providers()
        self._build_third_party_pool()
        planner = TenantPlanner(self.providers, self._rng.substream("tenancy"))
        self._place_third_parties(planner)
        self._build_sites(planner)

    def _register_providers(self) -> None:
        """Register orgs/ASes and announce per-org prefixes."""
        org_index = 0
        for provider in self.providers:
            for org_id, org_name, asn in zip(
                provider.org_ids, provider.org_names, provider.asns
            ):
                if self.registry.lookup(asn) is not None:
                    continue
                self.registry.register(
                    asn,
                    org_name.upper().replace(" ", "-")[:24],
                    org_id=org_id,
                    org_name=org_name,
                    category=AsCategory.HOSTING_CLOUD,
                )
                v4_prefix = _V4_SUPERNET.subnet(16, org_index)
                v6_prefix = _V6_SUPERNET.subnet(32, org_index)
                self.routing.announce(v4_prefix, asn)
                self.routing.announce(v6_prefix, asn)
                self._org_pools[(org_id, Family.V4)] = AddressPool(v4_prefix)
                self._org_pools[(org_id, Family.V6)] = AddressPool(
                    v6_prefix.subnet(112, 1)
                )
                org_index += 1
            for service in provider.services:
                self._service_by_suffix[service.cname_suffix] = (provider, service)
                # One zone per service suffix holds the edge target names.
                suffix_zone_origin = service.cname_suffix.split(".", 1)[1]
                self.zones.get_or_create_zone(suffix_zone_origin)

    def _edge_address(
        self, provider: CloudProvider, service: CloudService, family: Family
    ) -> IpAddress:
        """Round-robin over the service's shared edge addresses."""
        org_id = service.v4_org_id if family is Family.V4 else service.v6_org_id
        key = (f"{provider.name}/{service.name}", family)
        pool = self._edges.setdefault(key, [])
        cursor = self._edge_cursor.get(key, 0)
        if len(pool) < provider.edge_pool_size:
            address = self._org_pools[(org_id, family)].allocate()
            edge_name = f"edge-{len(pool)}.{service.cname_suffix}"
            self.rdns.register(address, edge_name)
            pool.append(address)
            self._edge_cursor[key] = 0
            return address
        self._edge_cursor[key] = (cursor + 1) % len(pool)
        return pool[self._edge_cursor[key]]

    def _materialize_tenant(self, tenant: Tenant) -> None:
        """Create DNS records and addresses for a tenant's placements."""
        site_zone = self.zones.get_or_create_zone(tenant.etld1)
        for placement in tenant.placements:
            provider, service = self._provider_service(placement.service)
            self._tenant_counter += 1
            target = f"t{self._tenant_counter}.{service.cname_suffix}"
            site_zone.add(placement.fqdn, DnsRecordType.CNAME, target)
            target_zone = self.zones.zone_for(target)
            assert target_zone is not None
            v4 = self._edge_address(provider, service, Family.V4)
            target_zone.add(target, DnsRecordType.A, v4)
            if placement.has_aaaa:
                v6 = self._edge_address(provider, service, Family.V6)
                target_zone.add(target, DnsRecordType.AAAA, v6)

    def _provider_service(
        self, service: CloudService
    ) -> tuple[CloudProvider, CloudService]:
        return self._service_by_suffix[service.cname_suffix]

    def _build_third_party_pool(self) -> None:
        cfg = self.config
        num_head = max(24, int(cfg.head_services_per_kilosite * cfg.num_sites / 1000))
        num_tail = int(cfg.tail_services_per_site * cfg.num_sites)
        self.pool = ThirdPartyPool(
            num_head=num_head,
            num_tail=num_tail,
            rng=self._rng.substream("third-parties"),
        )

    def _place_third_parties(self, planner: TenantPlanner) -> None:
        """Place every third-party service as a cloud tenant.

        A service's IPv6 status is drawn once from its category rate
        (ads lag, CDNs lead: Figure 9's causal story), slightly boosted
        for head services; its placement is correlated with that status
        (IPv6-enabled services disproportionately front with default-on
        CDN providers).
        """
        rng = self._rng.substream("third-party-tenancy")
        assert self.pool is not None
        num_head = self.pool.num_head
        ad_like = {ResourceCategory.ADS, ResourceCategory.TRACKERS}
        for index, service in enumerate(self.pool.services):
            is_head = index < num_head
            rate = CATEGORY_IPV6_RATE[service.category] + (0.04 if is_head else -0.08)
            if is_head and service.category not in ad_like:
                # The most popular infrastructure third parties (major
                # CDNs, font/script hosts, analytics) are reliably
                # dual-stack; only the ad/tracker ecosystem lags at the
                # head (the paper's Figure 9).  Without this, one unlucky
                # IPv4-only top service would poison every lean site.
                rate = min(0.99, rate + 0.30 / (1.0 + index / 6.0))
            enabled = rng.bernoulli(rate)
            if enabled:
                # Dual-stack third parties front with providers where IPv6
                # is effortless -- placing them on an opt-in-only host
                # would contradict their observed AAAA.
                primary = planner.pick_primary_effortless()
            else:
                primary = planner.pick_primary(cdn_bias=0.1)
            tenant = planner.place_tenant(
                etld1=service.domain,
                num_subdomains=rng.randint(3, 6),
                inclination=1.0 if enabled else 0.0,
                primary=primary,
                forced_aaaa=enabled,
                prefer_v6_services=enabled,
            )
            self.tenants[service.domain] = tenant
            self._materialize_tenant(tenant)

    def _build_sites(self, planner: TenantPlanner) -> None:
        cfg = self.config
        rng = self._rng.substream("sites")
        assert self.pool is not None
        # One object per distinct embedded resource, shared by every page
        # that embeds it; local, so it is neither stored nor kept.
        resources: dict[tuple[str, ResourceType], EmbeddedResource] = {}
        for entry in self.toplist:
            status_draw = rng.random()
            if status_draw < cfg.nxdomain_rate:
                self.plans[entry.etld1] = SitePlan(entry, SiteStatus.NXDOMAIN)
                continue  # no zone at all: resolver will answer NXDOMAIN
            plan_status = SiteStatus.OK
            threshold = cfg.nxdomain_rate
            for rate, status in (
                (cfg.dns_failure_rate, SiteStatus.DNS_FAILURE),
                (cfg.timeout_rate, SiteStatus.TIMEOUT),
                (cfg.tls_failure_rate, SiteStatus.TLS_FAILURE),
                (cfg.unknown_primary_rate, SiteStatus.UNKNOWN_PRIMARY),
            ):
                threshold += rate
                if status_draw < threshold:
                    plan_status = status
                    break

            # IPv6 inclination declines with rank (drives Figure 6).
            rank_position = 1.0 - math.log10(entry.rank + 1) / math.log10(
                max(10, cfg.num_sites)
            )  # 1 at top, ~0 at tail
            rank_term = cfg.inclination_rank_gain * rank_position
            noise = rng.normal(0.0, cfg.inclination_noise)
            inclination = site_inclination(cfg.inclination_base, rank_term, noise)
            primary = planner.pick_primary(cdn_bias=max(0.0, rank_position))
            num_subdomains = max(1, rng.poisson(cfg.mean_subdomains))
            uniforms: dict[str, float | None] = {}
            tenant = planner.place_tenant(
                entry.etld1, num_subdomains, inclination, primary=primary,
                decisions=uniforms,
            )
            self.adoption.record(tenant, rank_term, noise, uniforms)
            self.tenants[entry.etld1] = tenant
            self._materialize_tenant(tenant)

            third_parties = self._draw_site_third_parties(rng)
            website = self._build_website(entry, tenant, third_parties, rng, resources)
            self.plans[entry.etld1] = SitePlan(
                entry, plan_status, tenant=tenant,
                website=website, third_parties=third_parties,
            )
            self._apply_failure(plan_status, tenant, website, rng)

    def _draw_site_third_parties(self, rng: RngStream) -> list[ThirdPartyService]:
        """A site's third-party diet.

        Monetized sites embed the ad/tracker ecosystem (largely IPv4-only:
        Figure 9) plus other services; ad-free sites embed a few CDN/
        analytics services -- which is why a meaningful IPv6-full
        population survives at all.
        """
        cfg = self.config
        assert self.pool is not None
        ad_categories = frozenset(
            {ResourceCategory.ADS, ResourceCategory.TRACKERS}
        )
        other_categories = frozenset(
            {
                ResourceCategory.INFORMATION_TECHNOLOGY,
                ResourceCategory.CONTENT_DELIVERY,
                ResourceCategory.ANALYTICS,
            }
        )
        if rng.bernoulli(cfg.monetized_rate):
            embeds = self.pool.draw_embeds(cfg.monetized_ad_services, ad_categories)
            embeds.extend(
                self.pool.draw_embeds(cfg.monetized_other_services, other_categories)
            )
        else:
            embeds = self.pool.draw_embeds(cfg.lean_services, other_categories)
        # De-duplicate, preserving order.
        seen: dict[str, ThirdPartyService] = {}
        for service in embeds:
            seen[service.domain] = service
        return list(seen.values())

    def _build_website(
        self,
        entry: TopListEntry,
        tenant: Tenant,
        third_parties: list[ThirdPartyService],
        rng: RngStream,
        resources: dict[tuple[str, ResourceType], EmbeddedResource],
    ) -> Website:
        cfg = self.config

        def embed(page: Page, fqdn: str, rtype: ResourceType) -> None:
            resource = resources.get((fqdn, rtype))
            if resource is None:
                resource = resources[fqdn, rtype] = EmbeddedResource(fqdn, rtype)
            page.resources.append(resource)

        main_host = tenant.main_placement.fqdn
        website = Website(etld1=entry.etld1, rank=entry.rank, main_host=main_host)
        website.redirects[entry.etld1] = main_host
        # Apex serves only the redirect; give it an A record.
        apex_zone = self.zones.zone_for(entry.etld1)
        assert apex_zone is not None
        provider, service = self._provider_service(tenant.main_placement.service)
        apex_zone.add(entry.etld1, DnsRecordType.A,
                      self._edge_address(provider, service, Family.V4))

        # First-party asset hosts: predominantly the subdomains fronted by
        # the same service as www (one CDN config serves the site's
        # assets), occasionally any other subdomain.  This is what keeps
        # first-party-only IPv6-partial sites rare (the paper's 2.3%).
        www = tenant.main_placement
        same_service_hosts = [
            p.fqdn
            for p in tenant.placements
            if p.service.cname_suffix == www.service.cname_suffix
        ]
        other_hosts = [
            p.fqdn
            for p in tenant.placements
            if p.service.cname_suffix != www.service.cname_suffix
        ]
        version_split_host: str | None = None
        if rng.bernoulli(cfg.version_split_rate):
            # Intentional protocol-specific subdomain (section 4.4's
            # misclassification estimate): an A-only v4.<site> asset host.
            version_split_host = f"v4.{entry.etld1}"
            apex_zone.add(version_split_host, DnsRecordType.A,
                          self._edge_address(provider, service, Family.V4))

        paths = ["/"] + [f"/page{i}" for i in range(1, cfg.pages_per_site)]
        for path in paths:
            page = Page(path=path)
            count = max(1, rng.poisson(cfg.first_party_resources_per_page))
            for _ in range(count):
                if version_split_host is not None and rng.bernoulli(0.3):
                    host = version_split_host
                elif other_hosts and rng.bernoulli(0.04):
                    host = rng.choice(other_hosts)
                else:
                    host = rng.choice(same_service_hosts)
                rtype = rng.weighted_choice(
                    list(_FIRST_PARTY_TYPES), list(_FIRST_PARTY_TYPES.values())
                )
                embed(page, host, rtype)
            for service_3p in third_parties:
                if path != "/" and not rng.bernoulli(cfg.third_party_spread):
                    continue
                tenant_3p = self.tenants[service_3p.domain]
                # A third-party integration touches several of the
                # service's hosts (pixel, script, iframe endpoints).
                for placement in rng.sample(
                    tenant_3p.placements, rng.randint(2, 4)
                ):
                    embed(page, placement.fqdn, service_3p.draw_resource_type(rng))
            page.internal_links = [p for p in paths if p != path]
            website.pages[path] = page
        return website

    def _apply_failure(
        self,
        status: SiteStatus,
        tenant: Tenant,
        website: Website,
        rng: RngStream,
    ) -> None:
        main_host = website.main_host
        if status is SiteStatus.DNS_FAILURE:
            self.resolver.inject_failure(main_host, DnsStatus.SERVFAIL)
        elif status is SiteStatus.TIMEOUT:
            self.resolver.inject_failure(main_host, DnsStatus.TIMEOUT)
        elif status is SiteStatus.TLS_FAILURE:
            # Handshakes to the main host fail.  The host must be moved to
            # dedicated addresses first: blacklisting its *shared* CDN edge
            # would break IPv6 for every other tenant on that edge.
            a, aaaa = self.resolver.resolve_addresses(main_host)
            target = a.canonical_name
            zone = self.zones.zone_for(target)
            assert zone is not None
            service = tenant.main_placement.service
            zone.remove(target, DnsRecordType.A)
            fresh_v4 = self._org_pools[(service.v4_org_id, Family.V4)].allocate()
            zone.add(target, DnsRecordType.A, fresh_v4)
            self.connectivity.unreachable.add(fresh_v4)
            if aaaa.addresses:
                zone.remove(target, DnsRecordType.AAAA)
                fresh_v6 = self._org_pools[(service.v6_org_id, Family.V6)].allocate()
                zone.add(target, DnsRecordType.AAAA, fresh_v6)
                self.connectivity.unreachable.add(fresh_v6)
        elif status is SiteStatus.UNKNOWN_PRIMARY:
            # Redirect off into a domain that does not exist anywhere.
            website.redirects[main_host] = f"parked.gone-{website.rank}.example"

    # -- counterfactual records --------------------------------------------

    def provider_aaaa(self, provider_name: str) -> dict[str, IpAddress]:
        """``{fqdn: v6 address}`` for every AAAA-less placement on
        ``provider_name``'s services, the lever behind
        ``dualstack:<provider>``; this universe is left untouched.

        Placements whose edge is in the outage set are left out -- turning
        on IPv6 does not fix a broken site.  Each address is the next free
        one of the service's v6 organization pool (never handed out, so
        never in the outage set).  Deterministic: no RNG.
        """
        if provider_name not in {p.name for p in self.providers}:
            raise ValueError(
                f"unknown provider {provider_name!r}; known: "
                + ", ".join(p.name for p in self.providers)
            )
        published: dict[str, IpAddress] = {}
        for tenant in self.tenants.values():
            site_zone = self.zones.zone_for(tenant.etld1)
            assert site_zone is not None  # every tenant has its zone
            for placement in tenant.placements:
                if placement.has_aaaa or placement.provider_name != provider_name:
                    continue
                target = str(site_zone.lookup(placement.fqdn, DnsRecordType.CNAME)[0].value)
                target_zone = self.zones.zone_for(target)
                assert target_zone is not None  # guarded at build
                a_records = target_zone.lookup(target, DnsRecordType.A)
                if any(r.value in self.connectivity.unreachable for r in a_records):
                    continue  # broken edge: v6 would be just as dead
                pool = self._org_pools[(placement.service.v6_org_id, Family.V6)]
                published[placement.fqdn] = pool.peek()
        return published

    # -- convenience accessors ---------------------------------------------

    def plan_of(self, etld1: str) -> SitePlan:
        return self.plans[etld1]

    def service_of_cname(self, canonical_name: str) -> tuple[CloudProvider, CloudService] | None:
        """Identify the cloud service behind a canonical name, by suffix."""
        for suffix, value in self._service_by_suffix.items():
            if canonical_name.endswith("." + suffix):
                return value
        return None

    def org_of_address(self, address: IpAddress):
        """The owning organization of an address, via BGP + AS-to-Org."""
        asn = self.routing.origin_of(address)
        if asn is None:
            return None
        return self.registry.organization_of(asn)
