"""Cloud/CDN provider catalog with IPv6 enablement policies.

The paper's central cloud finding (section 5.3, Table 2): *how* a provider
exposes IPv6 decides how many tenants use it.

* ``ALWAYS_ON``: tenants cannot disable it (Azure Front Door) -> 100%.
* ``DEFAULT_ON``: enabled unless the tenant opts out (Cloudflare since
  2014, Akamai since 2016, CloudFront) -> 48-71% in practice.
* ``OPT_IN``: a console/control toggle (many compute products) -> <10%.
* ``OPT_IN_CODE_CHANGE``: requires changing embedded URLs or CNAMEs
  (Amazon S3's dual-stack endpoints) -> ~0.4%.
* ``NONE``: no IPv6 support at all.

Each :class:`CloudService` resolves a tenant's IPv6 outcome from its policy
and the tenant's latent interest; each :class:`CloudProvider` groups
services under one or more *organizations* and origin ASes, reproducing the
multi-AS and split-brand attribution artifacts of section 5.1 (the A and
AAAA of one domain originating from different organizations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.rng import RngStream


class Ipv6Policy(enum.Enum):
    ALWAYS_ON = "always-on"
    DEFAULT_ON = "default-on"
    OPT_IN = "opt-in"
    OPT_IN_CODE_CHANGE = "opt-in-code-change"
    NONE = "none"


#: Probability scale a tenant enables IPv6 under each policy, before the
#: tenant's own inclination is applied.  Calibrated to Table 2's adoption
#: column: always-on 100%, default-on 50-70% (opt-outs), opt-in <10%,
#: code-change ~0.4%.
POLICY_BASE_RATE: dict[Ipv6Policy, float] = {
    Ipv6Policy.ALWAYS_ON: 1.0,
    Ipv6Policy.DEFAULT_ON: 1.0,
    Ipv6Policy.OPT_IN: 0.18,
    Ipv6Policy.OPT_IN_CODE_CHANGE: 0.012,
    Ipv6Policy.NONE: 0.0,
}

#: Under DEFAULT_ON, the probability a *disinterested* tenant opts out.
DEFAULT_ON_OPT_OUT = 0.75


@dataclass(frozen=True)
class CloudService:
    """One product of a provider (CDN, storage, LB, compute...).

    Attributes:
        name: product name (Table 2's Service column).
        cname_suffix: tenants' DNS names CNAME onto this suffix; the
            He-et-al-style service fingerprint used by the analysis.
        policy: IPv6 enablement policy.
        weight: share of the provider's tenants on this service.
        v4_org_id / v6_org_id: organization whose AS originates each
            family's addresses.  They differ only for split-brand setups
            (bunny.net AAAA vs. Datacamp A; Akamai International AAAA vs.
            Akamai Technologies A).
        ease: how easy opting in actually is, as a multiplier on the
            opt-in/code-change base rates -- the paper's Table 2 shows
            a 20x adoption spread between opt-in services (a console
            toggle on Fastly vs. a CNAME change on ELB vs. an embedded-
            URL change on S3).
    """

    name: str
    cname_suffix: str
    policy: Ipv6Policy
    weight: float
    v4_org_id: str
    v6_org_id: str
    ease: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("service weight must be positive")
        if self.ease <= 0:
            raise ValueError("ease must be positive")

    @property
    def can_serve_ipv6(self) -> bool:
        return self.policy is not Ipv6Policy.NONE

    @property
    def ipv6_effortless(self) -> bool:
        """IPv6 without tenant action (what CDN-first providers offer)."""
        return self.policy in (Ipv6Policy.ALWAYS_ON, Ipv6Policy.DEFAULT_ON)

    def tenant_enables_ipv6(self, inclination: float, rng: RngStream) -> bool:
        """Does a tenant with the given IPv6 ``inclination`` end up with AAAA?

        ``inclination`` in [0, 1] is the tenant's latent interest in IPv6;
        the policy decides how much interest it takes.
        """
        return self.enables_ipv6_at(inclination, self.adoption_uniform(inclination, rng))

    def adoption_uniform(self, inclination: float, rng: RngStream) -> float | None:
        """The one uniform an adoption decision draws, whatever the
        ``inclination``; ``None`` (no draw) when the policy leaves the
        tenant no choice (ALWAYS_ON, NONE)."""
        if not 0.0 <= inclination <= 1.0:
            raise ValueError("inclination must be in [0, 1]")
        if self.policy in (Ipv6Policy.ALWAYS_ON, Ipv6Policy.NONE):
            return None
        return rng.random()

    def enables_ipv6_at(self, inclination: float, uniform: float | None) -> bool:
        """The adoption rule: the outcome of a decision that drew
        ``uniform`` (:meth:`adoption_uniform`) at ``inclination``.  Pure,
        so a recorded uniform re-decides at another inclination."""
        if self.policy is Ipv6Policy.ALWAYS_ON:
            return True
        if self.policy is Ipv6Policy.NONE:
            return False
        assert uniform is not None
        if self.policy is Ipv6Policy.DEFAULT_ON:
            # Enabled unless the tenant actively opts out; disinterested
            # tenants opt out at DEFAULT_ON_OPT_OUT.
            return not uniform < DEFAULT_ON_OPT_OUT * (1.0 - inclination)
        base = POLICY_BASE_RATE[self.policy] * self.ease
        return uniform < min(1.0, base * (0.25 + 1.5 * inclination))


@dataclass(frozen=True)
class CloudProvider:
    """A cloud/CDN operator: organizations, ASes, and services."""

    name: str
    org_ids: tuple[str, ...]  # primary org first
    org_names: tuple[str, ...]
    asns: tuple[int, ...]  # parallel to org_ids
    services: tuple[CloudService, ...]
    market_weight: float  # share of hosted FQDNs (Table 3's Count column)
    edge_pool_size: int = 48  # shared edge addresses per service

    def __post_init__(self) -> None:
        if not self.services:
            raise ValueError("a provider needs at least one service")
        if len(self.org_ids) != len(self.org_names) or len(self.org_ids) != len(self.asns):
            raise ValueError("org_ids, org_names, asns must be parallel")
        if self.market_weight <= 0:
            raise ValueError("market_weight must be positive")
        known = set(self.org_ids)
        for service in self.services:
            for org in (service.v4_org_id, service.v6_org_id):
                if org not in known:
                    raise ValueError(
                        f"service {service.name} references unknown org {org!r}"
                    )

    def asn_of_org(self, org_id: str) -> int:
        return self.asns[self.org_ids.index(org_id)]

    def pick_service(self, rng: RngStream, prefer_v6: bool = False) -> CloudService:
        """Pick a service by weight.

        With ``prefer_v6``, restrict to effortless-IPv6 services when the
        provider has any (an IPv6-committed operator fronts with the CDN
        product, not the raw compute one).
        """
        services = self.services
        if prefer_v6:
            effortless = tuple(s for s in services if s.ipv6_effortless)
            if effortless:
                services = effortless
        return rng.weighted_choice(services, [s.weight for s in services])


def _svc(
    name: str,
    suffix: str,
    policy: Ipv6Policy,
    weight: float,
    org: str,
    v6_org: str | None = None,
    ease: float = 1.0,
) -> CloudService:
    return CloudService(
        name=name,
        cname_suffix=suffix,
        policy=policy,
        weight=weight,
        v4_org_id=org,
        v6_org_id=v6_org if v6_org is not None else org,
        ease=ease,
    )


def build_provider_catalog() -> list[CloudProvider]:
    """The paper's top-15 providers plus a self-hosted remainder.

    Market weights follow Table 3's domain counts; service mixes and
    policies follow Table 2.  The Bunnyway/Datacamp partnership and the
    dual-Akamai organization split are encoded so the analyses reproduce
    the paper's attribution artifacts.
    """
    p = Ipv6Policy
    return [
        CloudProvider(
            name="Cloudflare",
            org_ids=("cloudflare", "cloudflare-london"),
            org_names=("Cloudflare, Inc.", "Cloudflare London, LLC"),
            asns=(13335, 209242),
            services=(
                _svc("Cloudflare CDN", "cdn.cloudflare-repro.example", p.DEFAULT_ON, 8.0, "cloudflare"),
                _svc("Cloudflare Spectrum", "spectrum.cloudflare-repro.example", p.OPT_IN, 1.0, "cloudflare-london"),
            ),
            market_weight=22.9,  # Cloudflare Inc + London rows of Table 3
        ),
        CloudProvider(
            name="Amazon",
            org_ids=("amazon",),
            org_names=("Amazon.com, Inc.",),
            asns=(16509,),
            services=(
                _svc("Amazon CloudFront CDN", "cloudfront.aws-repro.example", p.DEFAULT_ON, 3.0, "amazon"),
                # A CNAME change is needed for ELB IPv6 (paper: 7.4%).
                _svc("Amazon Elastic Load Balancer", "elb.aws-repro.example", p.OPT_IN, 2.0, "amazon", ease=0.5),
                _svc("Amazon Global Accelerator", "awsglobalaccelerator.aws-repro.example", p.OPT_IN, 0.3, "amazon", ease=0.25),
                # S3 dual-stack means changing embedded URLs (paper: 0.4%).
                _svc("Amazon S3", "s3.aws-repro.example", p.OPT_IN_CODE_CHANGE, 2.0, "amazon", ease=0.4),
                _svc("Amazon API Gateway", "execute-api.aws-repro.example", p.NONE, 0.6, "amazon"),
                _svc("Amazon Web App. Firewall", "waf.aws-repro.example", p.NONE, 0.3, "amazon"),
                _svc("Amazon EC2", "compute.aws-repro.example", p.OPT_IN, 13.0, "amazon", ease=0.55),
            ),
            market_weight=21.2,
        ),
        CloudProvider(
            name="Google",
            org_ids=("google",),
            org_names=("Google LLC",),
            asns=(396982,),
            services=(
                _svc("Google Cloud Run", "run.gcp-repro.example", p.ALWAYS_ON, 1.0, "google"),
                _svc("Google App Engine", "appspot.gcp-repro.example", p.DEFAULT_ON, 1.2, "google"),
                _svc("Google Cloud LB", "glb.gcp-repro.example", p.DEFAULT_ON, 6.0, "google"),
                _svc("Google Compute", "gce.gcp-repro.example", p.OPT_IN, 2.8, "google"),
            ),
            market_weight=14.9,
        ),
        CloudProvider(
            name="Akamai",
            org_ids=("akamai-intl", "akamai-tech"),
            org_names=("Akamai International B.V.", "Akamai Technologies, Inc."),
            asns=(20940, 16625),
            services=(
                # Modern platform: dual-stack out of Akamai International.
                _svc("Akamai CDN", "edgekey.akamai-repro.example", p.DEFAULT_ON, 3.0, "akamai-intl"),
                _svc("Akamai NetStorage", "netstorage.akamai-repro.example", p.DEFAULT_ON, 0.8, "akamai-intl"),
                # Legacy platform: A records from Akamai Technologies; a
                # tenant that enables IPv6 gets AAAA from International --
                # the split that creates the paper's IPv6-only artifact.
                _svc("Akamai Legacy CDN", "edgesuite.akamai-repro.example", p.OPT_IN, 2.1, "akamai-tech", v6_org="akamai-intl"),
            ),
            market_weight=5.9,
        ),
        CloudProvider(
            name="Fastly",
            org_ids=("fastly",),
            org_names=("Fastly, Inc.",),
            asns=(54113,),
            services=(
                # Opt-in, but a single console toggle (Figure 11: 34.3%).
                _svc("Fastly CDN", "fastly.fastly-repro.example", p.OPT_IN, 3.0, "fastly", ease=2.0),
            ),
            market_weight=2.8,
        ),
        CloudProvider(
            name="Microsoft",
            org_ids=("microsoft",),
            org_names=("Microsoft Corporation",),
            asns=(8075,),
            services=(
                _svc("Azure Front Door CDN", "azurefd.azure-repro.example", p.ALWAYS_ON, 0.35, "microsoft"),
                _svc("Azure Stack/IoT Edge", "azureiot.azure-repro.example", p.ALWAYS_ON, 0.4, "microsoft"),
                # Dual-stack VNets require substantial redeployment (0.3%).
                _svc("Azure Cloud Services / VMs", "cloudapp.azure-repro.example", p.OPT_IN, 0.6, "microsoft", ease=0.05),
                _svc("Azure Websites", "azurewebsites.azure-repro.example", p.NONE, 0.55, "microsoft"),
                _svc("Azure Blob Storage", "blob.azure-repro.example", p.NONE, 0.35, "microsoft"),
            ),
            market_weight=2.0,
        ),
        CloudProvider(
            name="Hetzner",
            org_ids=("hetzner",),
            org_names=("Hetzner Online GmbH",),
            asns=(24940,),
            services=(
                _svc("Hetzner Cloud", "hcloud.hetzner-repro.example", p.OPT_IN, 1.0, "hetzner"),
            ),
            market_weight=1.2,
        ),
        CloudProvider(
            name="OVH",
            org_ids=("ovh",),
            org_names=("OVH SAS",),
            asns=(16276,),
            services=(
                _svc("OVH Hosting", "ovh.ovh-repro.example", p.OPT_IN, 1.0, "ovh", ease=0.8),
            ),
            market_weight=1.1,
        ),
        CloudProvider(
            name="Alibaba",
            org_ids=("alibaba",),
            org_names=("Hangzhou Alibaba Advertising Co.,Ltd.",),
            asns=(37963,),
            services=(
                _svc("Alibaba Cloud", "alicloud.alibaba-repro.example", p.OPT_IN, 1.0, "alibaba", ease=1.2),
            ),
            market_weight=1.1,
        ),
        CloudProvider(
            name="Datacamp",
            org_ids=("datacamp",),
            org_names=("Datacamp Limited",),
            asns=(60068,),
            services=(
                _svc("CDN77", "cdn77.datacamp-repro.example", p.DEFAULT_ON, 1.0, "datacamp"),
            ),
            market_weight=1.1,
        ),
        CloudProvider(
            name="DigitalOcean",
            org_ids=("digitalocean",),
            org_names=("DigitalOcean, LLC",),
            asns=(14061,),
            services=(
                _svc("DigitalOcean Droplets", "droplet.do-repro.example", p.OPT_IN, 1.0, "digitalocean", ease=0.55),
            ),
            market_weight=0.7,
        ),
        CloudProvider(
            name="Incapsula",
            org_ids=("incapsula",),
            org_names=("Incapsula Inc",),
            asns=(19551,),
            services=(
                _svc("Incapsula WAF", "incap.incapsula-repro.example", p.OPT_IN_CODE_CHANGE, 1.0, "incapsula", ease=3.0),
            ),
            market_weight=0.5,
        ),
        CloudProvider(
            name="Bunnyway",
            # The partnership of section 5.1: bunny.net serves AAAA from
            # its own AS, while the A records sit on Datacamp servers --
            # the *same* Datacamp organization that runs CDN77, which is
            # what confuses AS-to-Org attribution in Table 3.
            org_ids=("bunnyway", "datacamp"),
            org_names=("BUNNYWAY, informacijske storitve d.o.o.", "Datacamp Limited"),
            asns=(200325, 60068),
            services=(
                _svc("bunny.net CDN", "b-cdn.bunny-repro.example", p.DEFAULT_ON, 1.0, "datacamp", v6_org="bunnyway"),
            ),
            market_weight=0.5,
        ),
        CloudProvider(
            name="Self-hosted",
            org_ids=("selfhosted",),
            org_names=("(self-hosted / other)",),
            asns=(65000,),
            services=(
                _svc("Self-hosted", "origin.selfhosted-repro.example", p.OPT_IN, 1.0, "selfhosted"),
            ),
            market_weight=24.0,
            edge_pool_size=4096,
        ),
    ]


def providers_by_name(
    catalog: list[CloudProvider] | None = None,
) -> dict[str, CloudProvider]:
    providers = catalog if catalog is not None else build_provider_catalog()
    return {provider.name: provider for provider in providers}
