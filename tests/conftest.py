"""Shared references for the census and observatory tests.

``rebuild`` is the reference every re-decided or published census is
pinned against: a universe built from scratch (at a drifted
``inclination_base``, dual-stacking a provider in place) and crawled
again.  ``constructions`` counts universe builds and crawls, so a test
can assert that a path builds none.  ``by_probe`` is the reference the
observatory's column kernel is pinned against: every (vantage, round,
target) probed one at a time through ``Prober.probe``, the one-probe
model of ``reference_models.py``.
"""

import functools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from reference_models import Prober, VantageResolver, encode_block
from repro.crawler.crawl import CensusConfig, WebCensus
from repro.datasets.scenarios import CensusStudy
from repro.net.addr import Family
from repro.net.dns import DnsRecordType
from repro.observatory.frame import ProbeFrame
from repro.observatory.rounds import (
    adoption_schedule,
    build_targets,
    fleet_country_codes,
)
from repro.observatory.vantage import build_vantage_fleet
from repro.util.rng import RngStream
from repro.web.ecosystem import WebEcosystem, WebEcosystemConfig


def dual_stack_in_place(ecosystem: WebEcosystem, provider: str) -> None:
    """Dual-stack every placement hosted on ``provider``, in place: an
    A-only placement whose edge is reachable gains an AAAA record at a
    shared edge of its service's v6 organization, and its ``has_aaaa``
    ground truth flips."""
    for tenant in ecosystem.tenants.values():
        site_zone = ecosystem.zones.zone_for(tenant.etld1)
        for index, placement in enumerate(tenant.placements):
            if placement.has_aaaa or placement.provider_name != provider:
                continue
            target = str(site_zone.lookup(placement.fqdn, DnsRecordType.CNAME)[0].value)
            target_zone = ecosystem.zones.zone_for(target)
            a_records = target_zone.lookup(target, DnsRecordType.A)
            if any(r.value in ecosystem.connectivity.unreachable for r in a_records):
                continue
            edge = ecosystem._edge_address(
                *ecosystem._provider_service(placement.service), Family.V6
            )
            target_zone.add(target, DnsRecordType.AAAA, edge)
            tenant.placements[index] = replace(placement, has_aaaa=True)


@pytest.fixture(scope="module")
def rebuild():
    """``rebuild(sites, seed, inclination_base=None, provider=None)``: the
    universe built at ``inclination_base`` (the default's when ``None``),
    ``provider`` dual-stacked in place before the crawl, and its crawl.
    Memoized for the module."""

    @functools.lru_cache(maxsize=None)
    def build(
        sites: int, seed: int, inclination_base: float | None = None,
        provider: str | None = None,
    ) -> CensusStudy:
        config = WebEcosystemConfig(num_sites=sites, seed=seed)
        if inclination_base is not None:
            config = replace(config, inclination_base=inclination_base)
        ecosystem = WebEcosystem(config)
        if provider is not None:
            dual_stack_in_place(ecosystem, provider)
        return CensusStudy(ecosystem, WebCensus(ecosystem, CensusConfig(seed=seed)).run())

    yield build
    build.cache_clear()


@pytest.fixture()
def constructions(monkeypatch):
    """A ``Counter`` of ``WebEcosystem`` constructions and ``WebCensus.run``
    crawls made while the test runs."""
    calls: Counter = Counter()

    def count(label, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(WebEcosystem, "__init__", count("ecosystem", WebEcosystem.__init__))
    monkeypatch.setattr(WebCensus, "run", count("crawl", WebCensus.run))
    return calls


def probe_frame_by_probe(ecosystem, config, fleet=None, published=None) -> ProbeFrame:
    """The frame ``run_observatory(ecosystem, config, fleet, published)``
    must produce, probed one (vantage, round, target) at a time: each
    vantage resolves every target through its own resolver, draws from
    its ``round:<i>`` substream in probe order, and races both Happy
    Eyeballs connections address by address."""
    fleet = build_vantage_fleet() if fleet is None else fleet
    targets = build_targets(ecosystem, config.max_targets)
    schedule = adoption_schedule(targets, config)
    for index, target in enumerate(targets):
        if published and target.host in published:
            schedule[index] = (0, (published[target.host],))
    country_codes, countries = fleet_country_codes(fleet)
    target_indices = np.arange(len(targets), dtype=np.int32)
    blocks = {}
    for vantage_index, (vantage, country_index) in enumerate(zip(fleet, country_codes)):
        prober = Prober(
            vantage,
            VantageResolver.over(
                vantage, ecosystem.zones, ecosystem.resolver.forced_failures()
            ),
            unreachable=frozenset(ecosystem.connectivity.unreachable),
        )
        root = RngStream(config.seed, f"vantage:{vantage.name}")
        for round_index, day in enumerate(config.round_days):
            rng = root.substream(f"round:{round_index}")
            results = []
            for target_index, target in enumerate(targets):
                adopted = schedule.get(target_index)
                overlay = adopted[1] if adopted is not None and day >= adopted[0] else ()
                results.append(prober.probe(target, rng, overlay))
            blocks[round_index, vantage_index] = encode_block(
                round_index, day, vantage_index, country_index, results, target_indices
            )
    return ProbeFrame.assemble(
        tuple(v.name for v in fleet),
        countries,
        tuple(t.etld1 for t in targets),
        [blocks[key] for key in sorted(blocks)],
    )


@pytest.fixture(scope="session")
def by_probe():
    """:func:`probe_frame_by_probe`, the observatory's per-probe reference."""
    return probe_frame_by_probe
