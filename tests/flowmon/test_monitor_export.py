"""Tests for the flow monitor: router addressing and flow scopes."""

import numpy as np
import pytest

from reference_models import FlowKey, FlowRecord, external_peer, observe, records
from repro.flowmon.conntrack import Protocol
from repro.flowmon.monitor import SCOPE_CODES, FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import IpAddress, Prefix
from repro.util.timeutil import DAY

LAN4 = Prefix.parse("192.168.1.0/24")
LAN6 = Prefix.parse("2001:db8:aaaa::/48")


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


def scopes(monitor: FlowMonitor) -> list[int]:
    """The frame's scope column: the program's classification."""
    return monitor.frame().scope.tolist()


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
        assert scopes(monitor) == [SCOPE_CODES[scope] for scope in FlowScope]

    def test_inbound_external(self):
        monitor = make_monitor()
        assert observe(monitor, flow("8.8.8.8", "192.168.1.5")) is FlowScope.EXTERNAL
        assert scopes(monitor) == [SCOPE_CODES[FlowScope.EXTERNAL]]

    def test_daily_binning(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "8.8.8.8", start=0.5 * DAY))
        observe(monitor, flow("192.168.1.5", "8.8.8.8", start=2.5 * DAY, end=2.6 * DAY))
        assert np.unique(monitor.frame().day).tolist() == [0, 2]
        assert len(records(monitor, day=0)) == 1
        assert len(records(monitor)) == 2

    def test_scope_filter(self):
        monitor = make_monitor()
        observe(monitor, flow("192.168.1.5", "8.8.8.8"))
        observe(monitor, flow("192.168.1.5", "192.168.1.9"))
        assert len(records(monitor, scope=FlowScope.EXTERNAL)) == 1
        assert len(records(monitor, scope=FlowScope.INTERNAL)) == 1
        for scope in (FlowScope.EXTERNAL, FlowScope.INTERNAL):
            assert len(monitor.frame().select(scope=scope)) == 1

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
        assert records(monitor)[0].key == key

    def test_external_peer(self):
        monitor = make_monitor()
        outbound = flow("192.168.1.5", "8.8.8.8")
        inbound = flow("8.8.8.8", "192.168.1.5", start=1.0)
        internal = flow("192.168.1.5", "192.168.1.6", start=2.0)
        assert str(external_peer(monitor.config, outbound)) == "8.8.8.8"
        assert str(external_peer(monitor.config, inbound)) == "8.8.8.8"
        assert external_peer(monitor.config, internal) is None
        for record in (outbound, inbound, internal):
            observe(monitor, record)
        frame = monitor.frame()  # rows: outbound, inbound (external), internal
        assert [str(peer) for peer in frame.peers] == ["8.8.8.8"]
        assert frame.peer.tolist() == [0, 0, -1]
