"""Declarative intervention specs: the counterfactual vocabulary.

An :class:`Intervention` is a frozen, serializable description of one
acceleration lever from the deployment literature (an ISP turning on
IPv6, a cloud provider dual-stacking its services, a country deploying
NAT64, a policy firewall, an accelerated takeoff, a Happy Eyeballs
timer change).  Each intervention declares which session **layers** it
perturbs -- that declaration is what lets
:class:`repro.whatif.overlay.OverlayStudy` rebuild only the affected
universes and reuse the baseline's caches for everything else.

Interventions serialize to compact spec strings (``nat64:DE``,
``dualstack:Amazon``, ``hetimer:300``) and compose into
:class:`Scenario`\\ s with ``+`` (``nat64:DE+accelerate:2``), which is
the form the CLI (``--intervention``), ``StudyConfig.whatif_scenarios``,
and the cache keys all share; ``parse_scenario(s.spec()) == s`` round-
trips by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable

from repro.happyeyeballs.algorithm import HappyEyeballsConfig
from repro.observatory.vantage import NetworkPolicy, VantagePoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.addr import IpAddress
    from repro.observatory.rounds import ObservatoryConfig
    from repro.traffic.apps import ServiceProfile
    from repro.traffic.residences import ResidenceProfile
    from repro.web.ecosystem import WebEcosystem

#: The session layers an intervention may perturb.  ``census``
#: perturbation (AAAA records published over the shared universe)
#: cascades into the derived layers (cloud, dependencies, observatory)
#: through the overlay's cache keys; it is not declared separately.
PERTURBABLE_LAYERS = frozenset({"traffic", "census", "observatory"})


@dataclass(frozen=True)
class Intervention:
    """Base class: one composable counterfactual lever.

    Subclasses set ``KIND`` (the spec keyword) and ``LAYERS`` (which
    session layers rebuilding is required for), implement
    :meth:`parse` / :meth:`spec_arg`, and override the hooks for their
    layers.  All hooks are pure: they return a replacement object (or,
    for the census, the records to publish) and never mutate their
    input, so they run identically in the parent process and in sweep
    workers, over universes shared with the baseline.

    ``LAYERS`` is what the overlay forks caches by, so it is checked
    when a subclass is created: an empty set, or one naming a layer
    outside :data:`PERTURBABLE_LAYERS`, raises ``TypeError``.
    """

    KIND: ClassVar[str] = ""
    LAYERS: ClassVar[frozenset[str]] = frozenset()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.LAYERS or not cls.LAYERS <= PERTURBABLE_LAYERS:
            raise TypeError(
                f"intervention {cls.__name__} must declare a non-empty LAYERS "
                f"within {sorted(PERTURBABLE_LAYERS)}, not {sorted(cls.LAYERS)}"
            )

    # -- serialization -----------------------------------------------------

    @classmethod
    def parse(cls, arg: str) -> "Intervention":
        """Build this intervention from the text after ``kind:``."""
        raise NotImplementedError

    def spec_arg(self) -> str:
        """The text after ``kind:`` (empty when the kind alone suffices)."""
        raise NotImplementedError

    def spec(self) -> str:
        """The canonical ``kind[:arg]`` spec string."""
        arg = self.spec_arg()
        return f"{self.KIND}:{arg}" if arg else self.KIND

    def describe(self) -> str:
        """One human-readable line for tables and logs."""
        return self.spec()

    # -- traffic layer hooks -----------------------------------------------

    def transform_profiles(
        self, profiles: "list[ResidenceProfile]"
    ) -> "list[ResidenceProfile]":
        return profiles

    def transform_catalog(
        self, catalog: "list[ServiceProfile]"
    ) -> "list[ServiceProfile]":
        return catalog

    def transform_he_config(
        self, config: HappyEyeballsConfig | None
    ) -> HappyEyeballsConfig | None:
        return config

    # -- census layer hook -------------------------------------------------

    def publish_aaaa(self, ecosystem: "WebEcosystem") -> "dict[str, IpAddress]":
        """The AAAA records (``{fqdn: address}``) this lever publishes over
        the baseline universe, which it must not mutate."""
        return {}

    # -- observatory layer hooks -------------------------------------------

    def transform_fleet(
        self, fleet: tuple[VantagePoint, ...]
    ) -> tuple[VantagePoint, ...]:
        return fleet

    def transform_observatory_config(
        self, config: "ObservatoryConfig"
    ) -> "ObservatoryConfig":
        return config


def _known_residences() -> tuple[str, ...]:
    from repro.traffic.residences import build_paper_residences

    return tuple(p.name for p in build_paper_residences())


def _known_providers() -> tuple[str, ...]:
    from repro.cloud.providers import build_provider_catalog

    return tuple(p.name for p in build_provider_catalog())


def _known_countries() -> tuple[str, ...]:
    from repro.observatory.vantage import build_vantage_fleet

    seen: dict[str, None] = {}
    for vantage in build_vantage_fleet():
        seen.setdefault(vantage.country)
    return tuple(seen)


@dataclass(frozen=True)
class EnableISPv6(Intervention):
    """An ISP (or CPE fix) turns on working WAN IPv6 for residences.

    Every device of the selected residences becomes WAN-IPv6-capable
    (Residence C's broken fleet, E's console...), so Happy Eyeballs can
    actually race IPv6 -- the usage signal moves, availability and
    readiness do not.
    """

    KIND: ClassVar[str] = "ispv6"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"traffic"})

    residences: tuple[str, ...] = ()  # empty = every residence

    def __post_init__(self) -> None:
        known = _known_residences()
        unknown = [name for name in self.residences if name not in known]
        if unknown:
            raise ValueError(
                f"unknown residences {unknown}; known: {', '.join(known)}"
            )
        # Canonical order (like StudyConfig.residences) so ispv6:C,A and
        # ispv6:A,C share one spec string -- and therefore one cache key.
        object.__setattr__(self, "residences", tuple(sorted(set(self.residences))))

    @classmethod
    def parse(cls, arg: str) -> "EnableISPv6":
        names = tuple(n for n in arg.split(",") if n) if arg else ()
        return cls(residences=names)

    def spec_arg(self) -> str:
        return ",".join(self.residences)

    def describe(self) -> str:
        who = ",".join(self.residences) or "every residence"
        return f"ISP enables IPv6 for {who}"

    def transform_profiles(self, profiles):
        wanted = set(self.residences) or {p.name for p in profiles}
        changed = []
        for profile in profiles:
            if profile.name not in wanted:
                changed.append(profile)
                continue
            specs = tuple(
                (kind, True, weight) for kind, _capable, weight in profile.device_specs
            )
            changed.append(
                dataclasses.replace(
                    profile, native_ipv6=True, device_specs=specs
                )
            )
        return changed


@dataclass(frozen=True)
class DualStackProvider(Intervention):
    """A cloud/CDN provider dual-stacks everything it hosts.

    Census side: every tenant subdomain placed on the provider's
    services gains an AAAA record, published over the baseline universe
    (graded readiness moves).  Traffic
    side: the provider's services in the client catalog become fully
    dual-stack (usage moves).  The binary availability answer moves too
    wherever vantages can see the new records -- which is the point of
    contrasting the three signals.
    """

    KIND: ClassVar[str] = "dualstack"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"traffic", "census"})

    provider: str = ""

    def __post_init__(self) -> None:
        known = _known_providers()
        if self.provider not in known:
            raise ValueError(
                f"unknown provider {self.provider!r}; known: {', '.join(known)}"
            )

    @classmethod
    def parse(cls, arg: str) -> "DualStackProvider":
        return cls(provider=arg)

    def spec_arg(self) -> str:
        return self.provider

    def describe(self) -> str:
        return f"{self.provider} dual-stacks all hosted services"

    def transform_catalog(self, catalog):
        needle = self.provider.lower()
        changed = []
        for service in catalog:
            matches = (
                needle in service.name.lower()
                or needle in service.as_name.lower()
                or needle in service.domain.lower()
            )
            changed.append(
                dataclasses.replace(service, ipv6_support=1.0)
                if matches
                else service
            )
        return changed

    def publish_aaaa(self, ecosystem):
        return ecosystem.provider_aaaa(self.provider)


@dataclass(frozen=True)
class DeployNAT64(Intervention):
    """A country's access networks deploy DNS64/NAT64.

    Every vantage in the country becomes a NAT64 eyeball network: the
    resolver synthesizes AAAA from A, so the binary availability answer
    jumps (IPv4-only sites now "have IPv6") while graded readiness --
    the census ground truth -- does not move at all.
    """

    KIND: ClassVar[str] = "nat64"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"observatory"})

    country: str = ""

    def __post_init__(self) -> None:
        known = _known_countries()
        if self.country not in known:
            raise ValueError(
                f"no vantage in country {self.country!r}; known: {', '.join(known)}"
            )

    @classmethod
    def parse(cls, arg: str) -> "DeployNAT64":
        return cls(country=arg)

    def spec_arg(self) -> str:
        return self.country

    def describe(self) -> str:
        return f"{self.country} deploys NAT64/DNS64"

    def transform_fleet(self, fleet):
        return tuple(
            dataclasses.replace(
                vantage,
                policy=NetworkPolicy.NAT64,
                aaaa_loss_rate=0.0,
                pmtu_blackhole_rate=0.0,
                block_rate=0.0,
            )
            if vantage.country == self.country
            else vantage
            for vantage in fleet
        )


@dataclass(frozen=True)
class PolicyBlockCountry(Intervention):
    """A country administratively blocks IPv6 to a share of targets."""

    KIND: ClassVar[str] = "block"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"observatory"})

    country: str = ""
    block_rate: float = 1.0

    def __post_init__(self) -> None:
        known = _known_countries()
        if self.country not in known:
            raise ValueError(
                f"no vantage in country {self.country!r}; known: {', '.join(known)}"
            )
        if not 0.0 <= self.block_rate <= 1.0:
            raise ValueError("block_rate must be a probability")

    @classmethod
    def parse(cls, arg: str) -> "PolicyBlockCountry":
        country, sep, rate = arg.partition("@")
        return cls(
            country=country, block_rate=float(rate) if sep else 1.0
        )

    def spec_arg(self) -> str:
        if self.block_rate == 1.0:
            return self.country
        return f"{self.country}@{self.block_rate:g}"

    def describe(self) -> str:
        return f"{self.country} blocks v6 for {self.block_rate:.0%} of targets"

    def transform_fleet(self, fleet):
        return tuple(
            dataclasses.replace(
                vantage,
                policy=NetworkPolicy.POLICY_BLOCK,
                aaaa_loss_rate=0.0,
                pmtu_blackhole_rate=0.0,
                block_rate=self.block_rate,
            )
            if vantage.country == self.country
            else vantage
            for vantage in fleet
        )


@dataclass(frozen=True)
class AcceleratedAdoption(Intervention):
    """The takeoff happens faster: mid-window AAAA adoption multiplied.

    Scales :attr:`ObservatoryConfig.adoption_drift` (capped at 1.0), so
    more targets publish AAAA during the window and earlier -- the
    lever the acceleration literature attributes to a handful of large
    players moving at once.
    """

    KIND: ClassVar[str] = "accelerate"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"observatory"})

    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")

    @classmethod
    def parse(cls, arg: str) -> "AcceleratedAdoption":
        return cls(multiplier=float(arg) if arg else 2.0)

    def spec_arg(self) -> str:
        return f"{self.multiplier:g}"

    def describe(self) -> str:
        return f"adoption takeoff x{self.multiplier:g}"

    def transform_observatory_config(self, config):
        return dataclasses.replace(
            config,
            adoption_drift=min(1.0, config.adoption_drift * self.multiplier),
        )


@dataclass(frozen=True)
class HappyEyeballsTimerChange(Intervention):
    """Client stacks ship different RFC 8305 timers.

    ``resolution_delay_ms`` is how long a client waits for a late AAAA
    before racing with IPv4 alone; raising it past the slow-AAAA tail
    recovers connections that today fall back to IPv4, moving the usage
    signal without touching availability or readiness.  Applies to the
    client traffic stacks only -- the observatory's prober keeps the
    RFC defaults, as real measurement fleets do.
    """

    KIND: ClassVar[str] = "hetimer"
    LAYERS: ClassVar[frozenset[str]] = frozenset({"traffic"})

    resolution_delay_ms: float = 250.0
    attempt_delay_ms: float | None = None

    def __post_init__(self) -> None:
        if self.resolution_delay_ms < 0:
            raise ValueError("resolution_delay_ms must be >= 0")
        if self.attempt_delay_ms is not None and self.attempt_delay_ms <= 0:
            raise ValueError("attempt_delay_ms must be positive")

    @classmethod
    def parse(cls, arg: str) -> "HappyEyeballsTimerChange":
        parts = arg.split(",") if arg else []
        resolution = float(parts[0]) if parts and parts[0] else 250.0
        attempt = float(parts[1]) if len(parts) > 1 and parts[1] else None
        return cls(resolution_delay_ms=resolution, attempt_delay_ms=attempt)

    def spec_arg(self) -> str:
        if self.attempt_delay_ms is None:
            return f"{self.resolution_delay_ms:g}"
        return f"{self.resolution_delay_ms:g},{self.attempt_delay_ms:g}"

    def describe(self) -> str:
        text = f"HE resolution delay {self.resolution_delay_ms:g} ms"
        if self.attempt_delay_ms is not None:
            text += f", attempt delay {self.attempt_delay_ms:g} ms"
        return text

    def transform_he_config(self, config):
        base = config or HappyEyeballsConfig()
        changes: dict[str, float] = {
            "resolution_delay": self.resolution_delay_ms / 1000.0
        }
        if self.attempt_delay_ms is not None:
            changes["attempt_delay"] = self.attempt_delay_ms / 1000.0
        return dataclasses.replace(base, **changes)


#: Spec keyword -> intervention class, the parse registry.
INTERVENTION_TYPES: dict[str, type[Intervention]] = {
    cls.KIND: cls
    for cls in (
        EnableISPv6,
        DualStackProvider,
        DeployNAT64,
        PolicyBlockCountry,
        AcceleratedAdoption,
        HappyEyeballsTimerChange,
    )
}


def parse_intervention(text: str) -> Intervention:
    """Parse one ``kind[:arg]`` spec string into an intervention."""
    kind, _, arg = text.strip().partition(":")
    cls = INTERVENTION_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown intervention kind {kind!r}; known: "
            + ", ".join(sorted(INTERVENTION_TYPES))
        )
    try:
        return cls.parse(arg)
    except Exception as exc:  # malformed args, unknown names, bad numbers
        raise ValueError(f"bad intervention spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """One named counterfactual world: a composition of interventions.

    Interventions apply in declared order; the scenario's :meth:`spec`
    (``+``-joined intervention specs) is its identity everywhere --
    cache keys, DeltaFrame interning, CLI, JSON.
    """

    interventions: tuple[Intervention, ...]

    def __post_init__(self) -> None:
        if not self.interventions:
            raise ValueError("a scenario needs at least one intervention")
        object.__setattr__(self, "interventions", tuple(self.interventions))

    def spec(self) -> str:
        return "+".join(iv.spec() for iv in self.interventions)

    def describe(self) -> str:
        return "; ".join(iv.describe() for iv in self.interventions)

    def layers(self) -> frozenset[str]:
        """The union of perturbed layers, the overlay's rebuild set."""
        perturbed: frozenset[str] = frozenset()
        for intervention in self.interventions:
            perturbed |= intervention.LAYERS
        return perturbed


def parse_scenario(text: str) -> Scenario:
    """Parse a ``+``-joined spec string into a :class:`Scenario`."""
    parts = [part for part in text.split("+") if part.strip()]
    if not parts:
        raise ValueError("empty scenario spec")
    return Scenario(tuple(parse_intervention(part) for part in parts))


def as_scenario(value: "Scenario | Intervention | str | Iterable") -> Scenario:
    """Coerce a spec string / intervention / iterable into a Scenario."""
    if isinstance(value, Scenario):
        return value
    if isinstance(value, Intervention):
        return Scenario((value,))
    if isinstance(value, str):
        return parse_scenario(value)
    return Scenario(tuple(value))


def default_sweep_grid() -> tuple[Scenario, ...]:
    """The canonical grid: every lever once, plus two compositions.

    Used when a whatif artifact runs without explicit ``--intervention``
    scenarios, so ``python -m repro whatif`` works out of the box.
    """
    specs = (
        "ispv6",
        "dualstack:Amazon",
        "nat64:US",
        "block:US@0.6",
        "accelerate:3",
        "hetimer:300",
        "nat64:US+accelerate:3",
        "dualstack:Amazon+ispv6",
    )
    return tuple(parse_scenario(spec) for spec in specs)
