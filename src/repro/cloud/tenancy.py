"""Tenants and their placement across clouds.

A *tenant* is an eTLD+1 whose subdomains (www, api, static, blog, ...) are
hosted on one or more cloud services.  The paper's Figure 12 rests on
*multi-cloud tenants*: when one tenant's subdomains sit on two providers,
differences in IPv6-fullness between those subdomains isolate the
providers' contribution from the tenant's interest.

The generative model mirrors that identification strategy: each tenant has
one latent ``inclination`` toward IPv6 shared by all its subdomains, and
each subdomain's AAAA outcome is drawn from its *service's* policy given
that inclination.  Providers therefore differ in outcome for the same
tenant exactly when their policies differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.providers import CloudProvider, CloudService, Ipv6Policy
from repro.util.rng import RngStream

#: Subdomain labels tenants deploy, most common first.
SUBDOMAIN_LABELS = (
    "www", "api", "static", "cdn", "img", "blog", "login", "info",
    "assets", "media", "shop", "mail",
)

#: Probability a subsequent subdomain stays on the tenant's primary cloud.
PRIMARY_STICKINESS = 0.85


@dataclass(frozen=True)
class SubdomainPlacement:
    """One subdomain hosted on one cloud service."""

    fqdn: str
    tenant: str
    provider_name: str
    service: CloudService
    has_aaaa: bool


@dataclass
class Tenant:
    """A site operator: an eTLD+1 plus its hosted subdomains."""

    etld1: str
    inclination: float
    placements: list[SubdomainPlacement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.inclination <= 1.0:
            raise ValueError("inclination must be in [0, 1]")

    @property
    def provider_names(self) -> set[str]:
        return {p.provider_name for p in self.placements}

    @property
    def is_multicloud(self) -> bool:
        return len(self.provider_names) >= 2

    def placements_on(self, provider_name: str) -> list[SubdomainPlacement]:
        return [p for p in self.placements if p.provider_name == provider_name]

    def ipv6_full_fraction_on(self, provider_name: str) -> float:
        """Fraction of this tenant's subdomains on ``provider_name`` that
        are IPv6-enabled (the per-cloud score fed to Figure 12's test)."""
        mine = self.placements_on(provider_name)
        if not mine:
            raise ValueError(f"tenant {self.etld1} has no subdomains on {provider_name}")
        return sum(1 for p in mine if p.has_aaaa) / len(mine)

    @property
    def main_placement(self) -> SubdomainPlacement:
        """The placement serving the site's main page (www)."""
        for placement in self.placements:
            if placement.fqdn.startswith("www."):
                return placement
        return self.placements[0]


class TenantPlanner:
    """Places tenants' subdomains onto cloud services."""

    def __init__(self, providers: list[CloudProvider], rng: RngStream) -> None:
        if not providers:
            raise ValueError("need at least one provider")
        self.providers = providers
        self._rng = rng
        self._weights = [p.market_weight for p in providers]

    def pick_primary(self, cdn_bias: float = 0.0) -> CloudProvider:
        """Pick a tenant's primary provider.

        ``cdn_bias`` in [0, 1] shifts weight toward providers whose top
        service is a default-on/always-on CDN -- popular sites dispropor-
        tionately front with CDNs, which drives Figure 6's rank gradient.
        """
        if not 0.0 <= cdn_bias <= 1.0:
            raise ValueError("cdn_bias must be in [0, 1]")
        weights = []
        for provider, base in zip(self.providers, self._weights):
            top = max(provider.services, key=lambda s: s.weight)
            is_cdn_first = top.policy in (Ipv6Policy.ALWAYS_ON, Ipv6Policy.DEFAULT_ON)
            weights.append(base * (1.0 + 2.0 * cdn_bias) if is_cdn_first else base)
        return self._rng.weighted_choice(self.providers, weights)

    def pick_primary_effortless(self) -> CloudProvider:
        """Pick among providers offering effortless IPv6 (always-on or
        default-on products).  Used for operators that have already
        committed to IPv6 (e.g. dual-stack third parties).

        The market weight is scaled by the share of the provider's
        portfolio that is effortless: a CDN-first provider attracts far
        more IPv6-committed operators than a compute-first provider that
        happens to also sell a CDN.
        """
        eligible: list[tuple[CloudProvider, float]] = []
        for provider, weight in zip(self.providers, self._weights):
            total = sum(s.weight for s in provider.services)
            effortless = sum(s.weight for s in provider.services if s.ipv6_effortless)
            if effortless > 0:
                eligible.append((provider, weight * effortless / total))
        if not eligible:
            return self.pick_primary()
        providers, weights = zip(*eligible)
        return self._rng.weighted_choice(list(providers), list(weights))

    def place_tenant(
        self,
        etld1: str,
        num_subdomains: int,
        inclination: float,
        primary: CloudProvider | None = None,
        forced_aaaa: bool | None = None,
        prefer_v6_services: bool = False,
        decisions: dict[str, float | None] | None = None,
    ) -> Tenant:
        """Create a tenant and place ``num_subdomains`` of its subdomains.

        The first subdomain is always ``www`` (the main page).  Subsequent
        subdomains stay on the primary provider with PRIMARY_STICKINESS --
        *reusing the www service* (one CDN configuration fronts the whole
        site, so first-party assets share the main page's IPv6 fate, which
        keeps first-party-only IPv6-partial sites rare, as in the paper's
        2.3%) -- otherwise they land on another market-weighted provider,
        creating the multi-cloud tenant population.

        The tenant enables IPv6 *once per service*: all subdomains on the
        same service share one enablement decision.  ``forced_aaaa``
        overrides the policy outcome for every placement (used for
        third-party services whose IPv6 status is set by category), but a
        service whose policy is NONE still cannot serve AAAA.
        ``prefer_v6_services`` makes the tenant pick effortless-IPv6
        products within each provider (how committed operators deploy).
        ``decisions``, when given, receives each enablement decision's
        uniform (:meth:`CloudService.adoption_uniform`) keyed by service
        suffix: what the decision can be re-decided from.
        """
        if num_subdomains < 1:
            raise ValueError("a tenant needs at least one subdomain")
        if num_subdomains > len(SUBDOMAIN_LABELS):
            num_subdomains = len(SUBDOMAIN_LABELS)
        tenant = Tenant(etld1=etld1, inclination=inclination)
        primary = primary or self.pick_primary()
        www_service: CloudService | None = None
        decisions = {} if decisions is None else decisions
        for label in SUBDOMAIN_LABELS[:num_subdomains]:
            if label == "www" or self._rng.bernoulli(PRIMARY_STICKINESS):
                provider = primary
                service = (
                    www_service
                    if www_service is not None
                    else provider.pick_service(self._rng, prefer_v6=prefer_v6_services)
                )
            else:
                provider = self._rng.weighted_choice(self.providers, self._weights)
                service = provider.pick_service(self._rng, prefer_v6=prefer_v6_services)
            if label == "www":
                www_service = service
            if forced_aaaa is not None:
                # Forced status still bows to the platform: a NONE-policy
                # service cannot serve AAAA, and an always-on service
                # cannot be disabled.
                has_aaaa = (forced_aaaa and service.can_serve_ipv6) or (
                    service.policy is Ipv6Policy.ALWAYS_ON
                )
            else:
                key = service.cname_suffix
                if key not in decisions:
                    decisions[key] = service.adoption_uniform(inclination, self._rng)
                has_aaaa = service.enables_ipv6_at(inclination, decisions[key])
            tenant.placements.append(
                SubdomainPlacement(
                    fqdn=f"{label}.{etld1}",
                    tenant=etld1,
                    provider_name=provider.name,
                    service=service,
                    has_aaaa=has_aaaa,
                )
            )
        return tenant
