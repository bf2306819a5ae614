"""Scenario builders: one place where examples, tests, and every benchmark
get their universes, so results across the repository stay comparable.

The paper's actual scale (nine months of traffic, a 100k-site crawl) is
reachable with these builders but slow in CI, so two calibrated sizes are
provided:

* the *bench* scale (the default below) reproduces every table and figure
  shape in minutes;
* the paper scale can be requested explicitly (``num_days=273``,
  ``num_sites=100_000``) when time permits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.crawler.crawl import CensusConfig, WebCensus
from repro.crawler.records import CrawlDataset
from repro.flowmon.monitor import FlowMonitor
from repro.happyeyeballs.algorithm import HappyEyeballsConfig
from repro.net.addr import IpAddress
from repro.traffic.apps import ServiceProfile, build_service_catalog
from repro.traffic.draws import realize
from repro.traffic.generate import ResidenceDataset, TrafficGenerator, router_config
from repro.traffic.residences import ResidenceProfile, build_paper_residences
from repro.traffic.universe import ServiceUniverse
from repro.web.ecosystem import WebEcosystem, WebEcosystemConfig

#: The paper observes November 2024 through August 2025.
PAPER_OBSERVATION_DAYS = 273

#: The paper crawls the Tranco top-100k.
PAPER_CENSUS_SITES = 100_000

#: Bench scale: long enough for MSTL's weekly component and spring break.
BENCH_TRAFFIC_DAYS = 154  # 22 weeks, covering the day-135 vacation

#: Bench scale for the census (the paper crawls 100k sites).
BENCH_CENSUS_SITES = 4000

#: CLI default scale: seconds-fast sanity runs.
CLI_TRAFFIC_DAYS = 28
CLI_CENSUS_SITES = 1500


@dataclass(frozen=True)
class ScalePreset:
    """One named (days, sites) scale from the README's calibration table."""

    name: str
    days: int
    sites: int
    purpose: str


#: The calibrated scales, addressable by name (``--scale`` on the CLI).
SCALE_PRESETS: dict[str, ScalePreset] = {
    preset.name: preset
    for preset in (
        ScalePreset("cli", CLI_TRAFFIC_DAYS, CLI_CENSUS_SITES,
                    "seconds-fast sanity runs"),
        ScalePreset("bench", BENCH_TRAFFIC_DAYS, BENCH_CENSUS_SITES,
                    "reproduces every table/figure shape in minutes"),
        ScalePreset("paper", PAPER_OBSERVATION_DAYS, PAPER_CENSUS_SITES,
                    "the paper's nine-month window and 100k-site crawl"),
    )
}


@dataclass
class ResidenceStudy:
    """The five-residence client-side study, generated."""

    universe: ServiceUniverse
    datasets: dict[str, ResidenceDataset]
    num_days: int

    def dataset(self, name: str) -> ResidenceDataset:
        return self.datasets[name]


@dataclass
class CensusStudy:
    """The server-side census plus its universe, and the AAAA records
    (``{fqdn: address}``) a what-if published over it (none for a crawl;
    the universe never carries them, so the baseline's is shared)."""

    ecosystem: WebEcosystem
    dataset: CrawlDataset
    published: dict[str, IpAddress] = field(default_factory=dict)
    config: WebEcosystemConfig = field(init=False)

    def __post_init__(self) -> None:
        self.config = self.ecosystem.config

    def publish(self, records: dict[str, IpAddress]) -> "CensusStudy":
        """This census with AAAA ``records`` published too, over the same
        universe: the crawl is replayed (:meth:`WebCensus.replay`) and
        each request whose AAAA or race winner changed is replaced."""
        published = {**self.published, **records}
        census = WebCensus(self.ecosystem, CensusConfig(seed=self.config.seed))
        replayed = zip(*census.replay(self.dataset, dict.fromkeys(published, True)))
        results = []
        for result in self.dataset.results:
            requests = []
            for record, (aaaa, winner) in zip(result.requests, replayed):
                if aaaa and not record.has_aaaa:
                    record = replace(record, v6_addresses=(published[record.fqdn],))
                if winner != record.family_used:
                    record = replace(record, family_used=winner)
                requests.append(record)
            results.append(replace(result, requests=requests))
        dataset = CrawlDataset(results=results, list_id=self.dataset.list_id)
        return CensusStudy(self.ecosystem, dataset, published)


def build_residence_study(
    num_days: int = BENCH_TRAFFIC_DAYS,
    seed: int = 42,
    residences: tuple[str, ...] | None = None,
    parallel: bool | int | None = None,
) -> ResidenceStudy:
    """Generate the five-residence traffic study (paper section 3).

    Args:
        num_days: observation length; 273 reproduces the paper window.
        seed: scenario seed (whole study is deterministic in it).
        residences: restrict to a subset of "A".."E" (all by default).
        parallel: fan residences out over worker processes (``None``
            auto-detects; results are identical to the sequential path).
    """
    universe = ServiceUniverse(build_service_catalog())
    generator = TrafficGenerator(universe, seed=seed)
    profiles = build_paper_residences()
    if residences is not None:
        wanted = set(residences)
        profiles = [p for p in profiles if p.name in wanted]
        if not profiles:
            raise ValueError(f"no residences match {residences!r}")
    datasets = generator.generate_all(profiles, num_days=num_days, parallel=parallel)
    return ResidenceStudy(universe=universe, datasets=datasets, num_days=num_days)


def realize_residence_study(
    baseline: ResidenceStudy,
    catalog: list[ServiceProfile],
    profiles: list[ResidenceProfile],
    he_config: HappyEyeballsConfig | None = None,
) -> ResidenceStudy:
    """Re-run IPv6 negotiation over a baseline study's recorded draws.

    Every residence of ``baseline`` is realized
    (:func:`~repro.traffic.draws.realize`) from its draws, with the
    devices of its profile in ``profiles``, the universe of ``catalog``
    and the Happy Eyeballs timers ``he_config``.  Only what negotiation
    reads may differ from the baseline's inputs -- device WAN
    capability, a service's IPv6 support, the timers -- so the result
    keeps the baseline's households, sessions, servers, sizes and
    timings (the what-if overlays' common random numbers).  A universe
    is a function of its catalog, so a ``catalog`` equal to the
    baseline's (an unpickled copy in a sweep worker included) shares
    the baseline's universe, and the baseline's overlays share one
    universe per other catalog (``dualstack:Amazon`` and
    ``dualstack:Amazon+ispv6`` re-race over the same one).  The realized
    datasets carry no draws of their own.
    """
    if catalog == baseline.universe.catalog:
        universe = baseline.universe
    else:
        universe = _overlay_universe(baseline.universe, tuple(catalog))
    by_name = {profile.name: profile for profile in profiles}
    datasets: dict[str, ResidenceDataset] = {}
    for name, base in baseline.datasets.items():
        if base.draws is None:
            raise ValueError(f"residence {name} carries no draws to realize")
        profile = by_name[name]
        devices = profile.build_devices()
        log = realize(base.draws, devices, universe, he_config)
        datasets[name] = ResidenceDataset(
            profile=profile,
            monitor=FlowMonitor(router_config(profile), log),
            universe=universe,
            num_days=baseline.num_days,
            devices=devices,
        )
    return ResidenceStudy(universe=universe, datasets=datasets, num_days=baseline.num_days)


@functools.lru_cache(maxsize=4)
def _overlay_universe(
    baseline: ServiceUniverse, catalog: tuple[ServiceProfile, ...]
) -> ServiceUniverse:
    """The universe of ``catalog``, built once per baseline universe (a
    new baseline's overlays build their own) and kept for the last few."""
    return ServiceUniverse(list(catalog))


def build_census(
    num_sites: int = BENCH_CENSUS_SITES,
    seed: int = 42,
    link_clicks: int = 5,
) -> CensusStudy:
    """Build a web universe and crawl it (paper section 4.1).

    Counterfactual censuses are not built: a what-if publishes over this
    census (:meth:`CensusStudy.publish`).

    Args:
        num_sites: top-list size; 100_000 reproduces the paper's scale.
        seed: scenario seed.
        link_clicks: same-site link clicks per site (paper uses 5;
            0 reproduces the paper's main-page-only comparison).
    """
    ecosystem = WebEcosystem(WebEcosystemConfig(num_sites=num_sites, seed=seed))
    census = WebCensus(ecosystem, CensusConfig(link_clicks=link_clicks, seed=seed))
    return CensusStudy(ecosystem=ecosystem, dataset=census.run())


# Cached accessors, kept for callers predating repro.api: both delegate to
# the Study session cache so a process never builds the same universe twice
# no matter which surface asked for it.


def census_scenario(
    num_sites: int = BENCH_CENSUS_SITES, seed: int = 42, link_clicks: int = 5
) -> CensusStudy:
    """Cached :func:`build_census` (one build per process)."""
    from repro.api.session import Study

    return Study(sites=num_sites, seed=seed, link_clicks=link_clicks).census
