"""Tests for the flow monitor and anonymized export."""

import pytest

from reference_models import observe
from repro.flowmon.conntrack import FlowKey, FlowRecord, Protocol
from repro.flowmon.export import FlowExporter
from repro.flowmon.monitor import FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import IpAddress, Prefix
from repro.util.timeutil import DAY

LAN4 = Prefix.parse("192.168.1.0/24")
LAN6 = Prefix.parse("2001:db8:aaaa::/48")
KEY = b"k" * 32


def make_monitor(with_v6: bool = True) -> FlowMonitor:
    config = RouterConfig(name="A", lan_v4=LAN4, lan_v6=LAN6 if with_v6 else None)
    return FlowMonitor(config=config)


def flow(src: str, dst: str, start=0.0, end=None, out_bytes=100, in_bytes=1000) -> FlowRecord:
    key = FlowKey(
        Protocol.TCP, IpAddress.parse(src), IpAddress.parse(dst), 40000, 443
    )
    return FlowRecord(
        key=key, start_time=start, end_time=end if end is not None else start + 1.0,
        bytes_out=out_bytes, bytes_in=in_bytes, packets_out=1, packets_in=1,
    )


class TestRouterConfig:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            RouterConfig("X", lan_v4=LAN6, lan_v6=None)
        with pytest.raises(ValueError):
            RouterConfig("X", lan_v4=LAN4, lan_v6=LAN4)

    def test_is_local(self):
        config = RouterConfig("A", lan_v4=LAN4, lan_v6=LAN6)
        assert config.is_local(IpAddress.parse("192.168.1.55"))
        assert not config.is_local(IpAddress.parse("8.8.8.8"))
        assert config.is_local(IpAddress.parse("2001:db8:aaaa::7"))
        assert not config.is_local(IpAddress.parse("2001:db8:bbbb::7"))

    def test_no_v6_prefix(self):
        config = RouterConfig("B", lan_v4=LAN4, lan_v6=None)
        assert not config.is_local(IpAddress.parse("2001:db8:aaaa::7"))


class TestFlowMonitor:
    def test_classification(self):
        monitor = make_monitor()
        assert observe(monitor, flow("192.168.1.5", "8.8.8.8")) is FlowScope.EXTERNAL
        assert observe(monitor, flow("192.168.1.5", "192.168.1.9")) is FlowScope.INTERNAL
        assert observe(monitor, flow("1.1.1.1", "8.8.8.8")) is FlowScope.TRANSIT

    def test_inbound_external(self):
        monitor = make_monitor()
        assert observe(monitor, flow("8.8.8.8", "192.168.1.5")) is FlowScope.EXTERNAL

    def test_daily_binning(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "8.8.8.8", start=0.5 * DAY))
        observe(monitor, flow("192.168.1.5", "8.8.8.8", start=2.5 * DAY, end=2.6 * DAY))
        assert monitor.observed_days() == [0, 2]
        assert len(monitor.records(day=0)) == 1
        assert len(monitor.records()) == 2

    def test_scope_filter(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "8.8.8.8"))
        observe(monitor, flow("192.168.1.5", "192.168.1.9"))
        assert len(monitor.records(scope=FlowScope.EXTERNAL)) == 1
        assert len(monitor.records(scope=FlowScope.INTERNAL)) == 1

    def test_logged_flow_projects_back(self):
        monitor = make_monitor()
        key = FlowKey(
            Protocol.UDP,
            IpAddress.parse("192.168.1.7"),
            IpAddress.parse("8.8.4.4"),
            5353,
            53,
        )
        observe(monitor, FlowRecord(key, 100.0, 101.0, 60, 400, 1, 1))
        assert len(monitor.log) == 1
        assert monitor.records()[0].key == key

    def test_external_peer(self):
        monitor = make_monitor()
        outbound = flow("192.168.1.5", "8.8.8.8")
        inbound = flow("8.8.8.8", "192.168.1.5")
        internal = flow("192.168.1.5", "192.168.1.6")
        assert str(monitor.external_peer(outbound)) == "8.8.8.8"
        assert str(monitor.external_peer(inbound)) == "8.8.8.8"
        assert monitor.external_peer(internal) is None


class TestFlowExporter:
    def test_client_anonymized_server_kept(self):
        monitor = make_monitor()
        record = flow("192.168.1.77", "8.8.8.8")
        observe(monitor, record)
        exporter = FlowExporter(monitor, key=KEY)
        exported = exporter.export_all()[0]
        # Server address intact for attribution.
        assert str(exported.peer) == "8.8.8.8"
        assert str(exported.anonymized_dst) == "8.8.8.8"
        # Client address pseudonymized within its /24.
        assert str(exported.anonymized_src) != "192.168.1.77"
        assert str(exported.anonymized_src).startswith("192.168.1.")

    def test_internal_flow_both_anonymized_no_peer(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "192.168.1.9"))
        exported = FlowExporter(monitor, key=KEY).export_all()[0]
        assert exported.peer is None
        assert exported.scope is FlowScope.INTERNAL
        assert str(exported.anonymized_src).startswith("192.168.1.")
        assert str(exported.anonymized_dst).startswith("192.168.1.")

    def test_v6_client_keeps_prefix(self):
        monitor = make_monitor()
        observe(monitor, flow("2001:db8:aaaa::42", "2001:db8:ffff::1"))
        exported = FlowExporter(monitor, key=KEY).export_all()[0]
        assert exported.is_v6
        assert str(exported.anonymized_src).startswith("2001:db8:aaaa:")

    def test_deterministic_pseudonyms(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.77", "8.8.8.8", start=0.0))
        observe(monitor, flow("192.168.1.77", "9.9.9.9", start=DAY))
        exporter = FlowExporter(monitor, key=KEY)
        day0 = exporter.export_day(0)
        day1 = exporter.export_day(1)
        assert day0[0].anonymized_src == day1[0].anonymized_src

    def test_metadata_preserved(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "8.8.8.8", out_bytes=10, in_bytes=20))
        exported = FlowExporter(monitor, key=KEY).export_all()[0]
        assert exported.bytes_total == 30
        assert exported.residence == "A"
        assert exported.protocol is Protocol.TCP
        assert not exported.is_v6
