"""Flow monitor edge cases: observation gaps, transit traffic, ICMP flows."""

import numpy as np

from reference_models import FlowKey, FlowRecord, IcmpInfo, observe, records
from repro.core import daily_fractions
from repro.flowmon.conntrack import Protocol, default_packets
from repro.flowmon.monitor import SCOPE_CODES, FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import IpAddress, Prefix
from repro.traffic.apps import build_service_catalog
from repro.traffic.generate import ResidenceDataset
from repro.traffic.residences import residences_by_name
from repro.traffic.universe import ServiceUniverse
from repro.util.timeutil import DAY

LAN4 = Prefix.parse("192.168.1.0/24")
LAN6 = Prefix.parse("2001:db8:aaaa::/48")


def make_monitor() -> FlowMonitor:
    return FlowMonitor(RouterConfig(name="T", lan_v4=LAN4, lan_v6=LAN6))


def observe_tcp(monitor: FlowMonitor, src: str, dst: str, day: int):
    key = FlowKey(
        Protocol.TCP, IpAddress.parse(src), IpAddress.parse(dst), 40000, 443
    )
    start = day * DAY + 100.0
    observe(monitor, FlowRecord(
        key, start, start + 100.0, 100, 1000, default_packets(100), default_packets(1000)
    ))


class TestObservationGaps:
    def test_missing_days_skipped_in_daily_series(self):
        """A router outage (no flows for some days) must not poison the
        daily-fraction series -- the analysis reports observed days only."""
        monitor = make_monitor()
        observe_tcp(monitor, "192.168.1.5", "8.8.8.8", day=0)
        observe_tcp(monitor, "192.168.1.5", "8.8.8.8", day=5)  # days 1-4 silent
        universe = ServiceUniverse(build_service_catalog())
        dataset = ResidenceDataset(
            profile=residences_by_name()["A"],
            monitor=monitor,
            universe=universe,
            num_days=6,
        )
        fractions = daily_fractions(dataset)
        assert len(fractions) == 2  # only the two observed days

    def test_observed_days_sorted(self):
        monitor = make_monitor()
        observe_tcp(monitor, "192.168.1.5", "8.8.8.8", day=7)
        observe_tcp(monitor, "192.168.1.5", "8.8.8.8", day=2)
        assert np.unique(monitor.frame().day).tolist() == [2, 7]


class TestTransitTraffic:
    def test_transit_isolated_from_analyses(self):
        """Flows with no local endpoint are logged as TRANSIT and never
        pollute the external/internal splits."""
        monitor = make_monitor()
        observe_tcp(monitor, "1.1.1.1", "8.8.8.8", day=0)
        assert len(records(monitor, scope=FlowScope.TRANSIT)) == 1
        assert not records(monitor, scope=FlowScope.EXTERNAL)
        assert not records(monitor, scope=FlowScope.INTERNAL)
        assert monitor.frame().scope.tolist() == [SCOPE_CODES[FlowScope.TRANSIT]]
        assert monitor.frame().peer.tolist() == [-1]


class TestIcmpFlows:
    def test_icmp_flow_frames_cleanly(self):
        monitor = make_monitor()
        key = FlowKey(
            Protocol.ICMP,
            IpAddress.parse("192.168.1.9"),
            IpAddress.parse("9.9.9.9"),
            icmp=IcmpInfo(icmp_type=8, icmp_code=0, icmp_id=77),
        )
        observe(monitor, FlowRecord(key, 10.0, 12.0, 128, 128, 2, 2))
        frame = monitor.frame()
        assert len(frame) == 1
        assert frame.protocol.tolist() == [Protocol.ICMP.value]
        assert frame.total_bytes.tolist() == [256]
        assert [str(peer) for peer in frame.peers] == ["9.9.9.9"]
        assert records(monitor)[0].key == key
