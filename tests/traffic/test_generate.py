"""Tests for the traffic generator: the paper's causal structure must emerge."""

import pytest

from reference_models import external_peer, records
from repro.flowmon.monitor import FlowScope
from repro.traffic.apps import build_service_catalog, catalog_by_name
from repro.traffic.generate import ResidenceDataset, TrafficGenerator
from repro.traffic.residences import residences_by_name
from repro.traffic.universe import ServiceUniverse
from repro.util.timeutil import day_index


@pytest.fixture(scope="module")
def universe() -> ServiceUniverse:
    return ServiceUniverse(build_service_catalog())


@pytest.fixture(scope="module")
def dataset_a(universe) -> ResidenceDataset:
    profile = residences_by_name()["A"]
    return TrafficGenerator(universe, seed=7).generate(profile, num_days=14)


@pytest.fixture(scope="module")
def dataset_c(universe) -> ResidenceDataset:
    profile = residences_by_name()["C"]
    return TrafficGenerator(universe, seed=7).generate(profile, num_days=14)


def external(dataset: ResidenceDataset):
    return records(dataset.monitor, scope=FlowScope.EXTERNAL)


def internal(dataset: ResidenceDataset):
    return records(dataset.monitor, scope=FlowScope.INTERNAL)


def byte_fraction_v6(flows) -> float:
    total = sum(r.total_bytes for r in flows)
    v6 = sum(r.total_bytes for r in flows if r.key.is_v6)
    return v6 / total if total else 0.0


class TestGeneratorBasics:
    def test_invalid_days(self, universe):
        profile = residences_by_name()["A"]
        with pytest.raises(ValueError):
            TrafficGenerator(universe).generate(profile, num_days=0)

    def test_deterministic(self, universe):
        profile = residences_by_name()["E"]
        d1 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        d2 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        r1 = [(r.start_time, r.total_bytes) for r in external(d1)]
        r2 = [(r.start_time, r.total_bytes) for r in external(d2)]
        assert r1 == r2

    def test_seed_changes_traffic(self, universe):
        profile = residences_by_name()["E"]
        d1 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        d2 = TrafficGenerator(universe, seed=4).generate(profile, num_days=3)
        e1, e2 = external(d1), external(d2)
        assert len(e1) != len(e2) or byte_fraction_v6(e1) != byte_fraction_v6(e2)

    def test_all_days_covered(self, dataset_a):
        days = {day_index(r.start_time) for r in external(dataset_a)}
        assert days.issuperset(set(range(13)))  # last day may spill over

    def test_internal_and_external_present(self, dataset_a):
        assert external(dataset_a)
        assert internal(dataset_a)

    def test_flows_attributable_to_ases(self, dataset_a):
        """Every external peer must resolve through the BGP table."""
        monitor = dataset_a.monitor
        routing = dataset_a.universe.routing
        for record in external(dataset_a)[:500]:
            peer = external_peer(monitor.config, record)
            assert peer is not None
            assert routing.origin_of(peer) is not None


class TestEmergentProtocolChoice:
    def test_dual_stack_residence_mostly_v6_to_v6_services(self, dataset_a):
        """Flows to a fully-IPv6 service from capable devices ride IPv6."""
        by_name = catalog_by_name(dataset_a.universe.catalog)
        google = by_name["Google"]
        routing = dataset_a.universe.routing
        monitor = dataset_a.monitor
        google_records = [
            r
            for r in external(dataset_a)
            if routing.origin_of(external_peer(monitor.config, r)) == google.asn
        ]
        assert google_records
        v6 = sum(1 for r in google_records if r.key.is_v6)
        assert v6 / len(google_records) > 0.6

    def test_ipv4_only_service_never_v6(self, dataset_a):
        by_name = catalog_by_name(dataset_a.universe.catalog)
        laggard_asns = {by_name[n].asn for n in ("Zoom", "Twitch", "GitHub", "USC Campus")}
        routing = dataset_a.universe.routing
        monitor = dataset_a.monitor
        for record in external(dataset_a):
            peer = external_peer(monitor.config, record)
            if routing.origin_of(peer) in laggard_asns:
                assert not record.key.is_v6

    def test_broken_devices_depress_v6(self, dataset_a, dataset_c):
        """Residence C (broken CPE) shows far less IPv6 than A."""
        frac_a = byte_fraction_v6(external(dataset_a))
        frac_c = byte_fraction_v6(external(dataset_c))
        assert frac_a > 0.45
        assert frac_c < 0.30
        assert frac_a > frac_c + 0.2

    def test_happy_eyeballs_inflates_v4_flows(self, dataset_a):
        """Byte fraction exceeds flow fraction at the v6-heavy residence
        (section 3.2: extra IPv4 SYNs make flows overstate IPv4)."""
        flows = external(dataset_a)
        bytes_frac = byte_fraction_v6(flows)
        flow_frac = sum(1 for r in flows if r.key.is_v6) / len(flows)
        assert bytes_frac > flow_frac

    def test_vacation_gap_visible(self, universe):
        """Residence A's spring break produces near-zero human traffic."""
        profile = residences_by_name()["A"]
        dataset = TrafficGenerator(universe, seed=5).generate(profile, num_days=140)
        flows = external(dataset)
        on_break = [r for r in flows if 135 <= day_index(r.start_time) <= 138]
        before_break = [r for r in flows if 128 <= day_index(r.start_time) <= 131]
        assert len(on_break) < len(before_break) / 3
        # What remains during the break is background -> IPv4-leaning.
        assert byte_fraction_v6(on_break) < byte_fraction_v6(before_break)


class TestInternalTraffic:
    def test_internal_stays_on_lan(self, dataset_a):
        config = dataset_a.monitor.config
        for record in internal(dataset_a):
            assert config.is_local(record.key.src)
            assert config.is_local(record.key.dst)

    def test_d_internal_exceeds_external_flows(self, universe):
        """Residence D: NAS syncs dominate; internal flows > external."""
        profile = residences_by_name()["D"]
        dataset = TrafficGenerator(universe, seed=7).generate(profile, num_days=14)
        assert len(internal(dataset)) > len(external(dataset))

    def test_d_internal_is_v6_heavy(self, universe):
        profile = residences_by_name()["D"]
        dataset = TrafficGenerator(universe, seed=7).generate(profile, num_days=14)
        flows = internal(dataset)
        v6 = sum(1 for r in flows if r.key.is_v6)
        assert v6 / len(flows) > 0.8

    def test_no_transit_flows(self, dataset_a):
        assert not records(dataset_a.monitor, scope=FlowScope.TRANSIT)


class TestIcmp:
    def test_icmp_probes_present_over_long_run(self, universe):
        profile = residences_by_name()["A"]
        dataset = TrafficGenerator(universe, seed=11).generate(profile, num_days=10)
        from repro.flowmon.conntrack import Protocol

        icmp = [
            r
            for r in records(dataset.monitor)
            if r.key.protocol is Protocol.ICMP
        ]
        assert icmp, "expected at least one ICMP probe in 10 days"
        assert all(r.key.icmp is not None for r in icmp)
