"""The column kernel against the per-probe reference.

``run_observatory`` resolves each target once and decides every
(vantage, round) block as columns.  The ``by_probe`` reference (in
``tests/conftest.py``) probes the same world one (vantage, round,
target) at a time through ``Prober.probe`` (``tests/reference_models.py``).
The two frames must be byte-identical, with equal interning tables, over
generated universes (every policy, transformed fleets, adoption drift 0
and 1, a published map) and over a hand-built zone database holding the
answers generated universes never produce.  A what-if sweep must resolve
each target once per observatory build.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import repro.observatory.rounds as rounds
from repro.api import Study, StudyConfig, clear_caches
from repro.net.addr import IpAddress
from repro.net.dns import DnsRecordType, DnsStatus, Resolver, ZoneDatabase
from repro.observatory.probe import ProbeVerdict
from repro.observatory.resolver import NAT64_PREFIX
from repro.observatory.rounds import ObservatoryConfig, run_observatory
from repro.observatory.vantage import NetworkPolicy, VantagePoint, build_vantage_fleet
from repro.web.ecosystem import WebEcosystem, WebEcosystemConfig
from repro.web.toplist import TopList, TopListEntry
from repro.whatif import run_sweep
from repro.whatif.spec import parse_scenario


def assert_same_frame(got, want):
    assert got.data.tobytes() == want.data.tobytes()
    assert (got.vantages, got.countries, got.targets) == (
        want.vantages, want.countries, want.targets,
    )


def scenario_inputs(ecosystem, config, spec):
    """The fleet, config and published AAAA records of ``spec``."""
    fleet, published = build_vantage_fleet(), {}
    for intervention in parse_scenario(spec).interventions if spec else ():
        fleet = intervention.transform_fleet(fleet)
        config = intervention.transform_observatory_config(config)
        published.update(intervention.publish_aaaa(ecosystem))
    return fleet, config, published


#: (sites, seed, days, interval, targets, adoption drift) per universe.
WORLDS = {
    "small": (120, 5, 10, 3, 60, 0.12),
    "long": (200, 21, 42, 7, 120, 0.12),
    "still": (160, 3, 21, 5, 90, 0.0),
    "all-adopt": (150, 40, 30, 4, 150, 1.0),
}

#: (world, scenario spec): every policy of the default fleet, every
#: fleet and config transform, drift 0 and 1, and a published map.
CASES = (
    ("small", None),
    ("small", "nat64:US"),
    ("small", "block:US@0.6"),
    ("long", "nat64:US+accelerate:3"),
    ("long", "dualstack:Amazon"),
    ("still", None),
    ("still", "block:CN"),
    ("all-adopt", None),
    ("all-adopt", "nat64:DE"),
    ("all-adopt", "dualstack:Amazon"),
)


@pytest.fixture(scope="module")
def universes():
    built = {}

    def universe(sites, seed):
        if (sites, seed) not in built:
            built[sites, seed] = WebEcosystem(WebEcosystemConfig(num_sites=sites, seed=seed))
        return built[sites, seed]

    return universe


@pytest.mark.parametrize("world,spec", CASES, ids=[f"{w}-{s or 'default'}" for w, s in CASES])
def test_generated_universe_matches_the_reference(by_probe, universes, world, spec):
    sites, seed, days, interval, targets, drift = WORLDS[world]
    ecosystem = universes(sites, seed)
    config = ObservatoryConfig(
        num_days=days, probe_interval_days=interval, max_targets=targets,
        adoption_drift=drift, seed=seed, parallel=False,
    )
    fleet, config, published = scenario_inputs(ecosystem, config, spec)
    if published:
        assert any(t.host in published for t in rounds.build_targets(ecosystem, targets))
    got = run_observatory(ecosystem, config, fleet=fleet, published=published).frame
    assert_same_frame(got, by_probe(ecosystem, config, fleet, published))


# -- a hand-built world ------------------------------------------------------


ip = IpAddress.parse


#: Addresses behind the edge-outage set.
DEAD = {
    ip("4.0.1.1"), ip("2600:0:2::1"), ip("4.0.0.30"), ip("4.0.3.1"),
    ip("2600:0:4::1"), ip("4.0.5.5"),
}

#: Published AAAA records (what a census what-if hands in).
PUBLISHED = {"www.published.test": ip("2600:0:9::1")}


class HandBuiltWorld:
    """The slice of :class:`WebEcosystem` that ``run_observatory`` reads,
    over a hand-built zone database: one target per answer shape."""

    def __init__(self):
        self.zones = ZoneDatabase()
        self.resolver = Resolver(database=self.zones)
        self.connectivity = SimpleNamespace(unreachable=set(DEAD))
        self.hosts = {}
        self._add("dual.test", a=["4.0.0.10"], aaaa=["2600:0:1::10"])
        # Two addresses per family, the first of each unreachable.
        self._add("multi.test", a=["4.0.1.1", "4.0.1.2"], aaaa=["2600:0:2::1", "2600:0:2::2"])
        self._add("legacy.test", a=["4.0.0.20"])
        # DNS64 synthesizes behind an unreachable IPv4 edge.
        self._add("deadedge.test", a=["4.0.0.30"])
        # Two A records, the first unreachable, and no AAAA.
        self._add("multiv4.test", a=["4.0.3.1", "4.0.3.2"])
        self._add("v6dead.test", a=["4.0.0.40"], aaaa=["2600:0:4::1"])
        # Adoption is scheduled but needs an A record: it never shows.
        self._add("v6only.test", aaaa=["2600:0:6::1"])
        # A real AAAA inside the NAT64 prefix, embedding a dead IPv4.
        embedded = IpAddress.v6(NAT64_PREFIX | ip("4.0.5.5").value)
        self._add("embedded.test", a=["4.0.0.50"], aaaa=[str(embedded)])
        self._add("published.test", a=["4.0.0.60"])
        # NODATA on both families: the name holds only a TXT record.
        zone = self.zones.create_zone("nodata.test")
        zone.add("www.nodata.test", DnsRecordType.TXT, "hello")
        self.hosts["nodata.test"] = "www.nodata.test"
        # A CNAME chain longer than the resolver follows.
        zone = self.zones.create_zone("chain.test")
        for link in range(10):
            zone.add(f"c{link}.chain.test", DnsRecordType.CNAME, f"c{link + 1}.chain.test")
        zone.add("c10.chain.test", DnsRecordType.A, ip("4.0.0.70"))
        self.hosts["chain.test"] = "c0.chain.test"
        for name, status in (("servfail.test", DnsStatus.SERVFAIL),
                             ("timeout.test", DnsStatus.TIMEOUT)):
            self._add(name, a=["4.0.0.80"], aaaa=["2600:0:8::1"])
            self.resolver.inject_failure(self.hosts[name], status)
        self.hosts["gone.test"] = "gone.test"  # NXDOMAIN: no zone at all
        self.toplist = TopList(
            [TopListEntry(rank, etld1) for rank, etld1 in enumerate(self.hosts, start=1)]
        )

    def _add(self, etld1, a=(), aaaa=()):
        zone = self.zones.create_zone(etld1)
        host = f"www.{etld1}"
        zone.add(etld1, DnsRecordType.TXT, "apex")
        for text in a:
            zone.add(host, DnsRecordType.A, ip(text))
        for text in aaaa:
            zone.add(host, DnsRecordType.AAAA, ip(text))
        self.hosts[etld1] = host

    def plan_of(self, etld1):
        return SimpleNamespace(website=SimpleNamespace(main_host=self.hosts[etld1]))


def hand_built_fleet():
    """The default fleet plus every policy knob at its extremes, and a
    vantage whose IPv6 is slow enough to lose dual-stack races."""
    return build_vantage_fleet() + (
        VantagePoint("xa-lossless", "XA", NetworkPolicy.LOSSY_RESOLVER, aaaa_loss_rate=0.0),
        VantagePoint("xa-lossall", "XA", NetworkPolicy.LOSSY_RESOLVER, aaaa_loss_rate=1.0),
        VantagePoint("xb-pmtu", "XB", NetworkPolicy.BROKEN_PMTU, pmtu_blackhole_rate=1.0),
        VantagePoint("xb-blockall", "XB", NetworkPolicy.POLICY_BLOCK, block_rate=1.0),
        VantagePoint("xc-nat64", "XC", NetworkPolicy.NAT64),
        VantagePoint("xc-slow6", "XC", NetworkPolicy.NATIVE, v4_latency=0.02, v6_latency=0.5),
    )


@pytest.mark.parametrize("drift", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hand_built_world_matches_the_reference(by_probe, seed, drift):
    world, fleet = HandBuiltWorld(), hand_built_fleet()
    config = ObservatoryConfig(
        num_days=30, probe_interval_days=3, adoption_drift=drift, seed=seed, parallel=False,
    )
    got = run_observatory(world, config, fleet=fleet, published=PUBLISHED).frame
    assert_same_frame(got, by_probe(world, config, fleet, PUBLISHED))
    # The world reaches every verdict, synthesis, and both race winners.
    assert set(got.verdict.tolist()) == {verdict.value for verdict in ProbeVerdict}
    assert got.synthesized.any()
    assert set(got.data["client_family"].tolist()) == {0, 4, 6}


def test_hand_built_world_covers_every_resolution_status():
    world = HandBuiltWorld()
    statuses = {
        response.status
        for host in world.hosts.values()
        for response in world.resolver.resolve_addresses(host)
    }
    assert statuses == set(DnsStatus)


# -- counters, not timings ---------------------------------------------------

#: A world no other test builds, so every overlay in the grid is built.
KERNEL_WORLD = StudyConfig(
    days=3, sites=140, seed=2020, probe_targets=70, probe_interval_days=1, parallel=False,
)


def test_sweep_resolves_each_target_once_per_build(monkeypatch):
    """Over a warm baseline, each of the default grid's five observatory
    builds resolves every target exactly once."""
    clear_caches()
    baseline = Study(KERNEL_WORLD)
    try:
        baseline.traffic, baseline.census, baseline.observatory
        calls: Counter = Counter()
        builds = []

        def count(label, fn):
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)

            return counted

        def observed(*args, **kwargs):
            before = calls["resolve"]
            study = build(*args, **kwargs)
            builds.append((calls["resolve"] - before, len(study.targets)))
            return study

        build = rounds.run_observatory
        resolve = count("resolve", Resolver.resolve_addresses)
        monkeypatch.setattr(Resolver, "resolve_addresses", resolve)
        monkeypatch.setattr(rounds, "run_observatory", observed)
        run_sweep(baseline, None, parallel=False)
        assert builds == [(70, 70)] * 5
    finally:
        clear_caches()
