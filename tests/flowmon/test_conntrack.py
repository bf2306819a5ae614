"""Flow identity and a finished flow's final accounting, as the program
holds them: the column log refuses what no flow can carry
(``FlowLog.from_columns``, reached through the reference ``observe``),
and the frame reads the totals."""

import numpy as np
import pytest

from reference_models import FlowKey, FlowRecord, IcmpInfo, observe
from repro.flowmon.conntrack import Protocol, default_packets
from repro.flowmon.monitor import FlowMonitor, RouterConfig
from repro.net.addr import IpAddress, Prefix

SRC = IpAddress.parse("192.168.1.10")
DST = IpAddress.parse("203.0.113.5")
SRC6 = IpAddress.parse("2001:db8:1::10")
DST6 = IpAddress.parse("2001:db8:2::5")


def tcp_key(sport=40000, dport=443):
    return FlowKey(Protocol.TCP, SRC, DST, sport, dport)


def logged(*records: FlowRecord) -> FlowMonitor:
    """A monitor holding ``records``, its log sealed (and so checked)."""
    monitor = FlowMonitor(
        RouterConfig("T", Prefix.parse("192.168.1.0/24"), Prefix.parse("2001:db8:1::/64"))
    )
    for record in records:
        observe(monitor, record)
    monitor.log.rows  # seals the appended rows through FlowLog.from_columns
    return monitor


def flow(key: FlowKey, start=0.0, end=1.0, counters=(0, 0, 0, 0)) -> FlowRecord:
    return FlowRecord(key, start, end, *counters)


class TestFlowKey:
    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError, match="share an address family"):
            logged(flow(FlowKey(Protocol.TCP, SRC, DST6, 1, 2)))

    def test_icmp_requires_info(self):
        with pytest.raises(ValueError, match="must carry ICMP info"):
            logged(flow(FlowKey(Protocol.ICMP, SRC, DST)))
        monitor = logged(flow(FlowKey(Protocol.ICMP, SRC, DST, icmp=IcmpInfo(8, 0, 1234))))
        assert monitor.log.rows["icmp_type"].tolist() == [8]

    def test_icmp_rejects_ports(self):
        with pytest.raises(ValueError, match="ICMP flows have no ports"):
            logged(flow(FlowKey(Protocol.ICMP, SRC, DST, sport=1, icmp=IcmpInfo(8, 0, 1))))

    def test_tcp_rejects_icmp_info(self):
        with pytest.raises(ValueError, match="only ICMP flows carry ICMP info"):
            logged(flow(FlowKey(Protocol.TCP, SRC, DST, 1, 2, icmp=IcmpInfo(8, 0, 1))))

    def test_port_range(self):
        with pytest.raises(ValueError, match="port 70000 out of range"):
            logged(flow(FlowKey(Protocol.UDP, SRC, DST, 70000, 53)))

    def test_icmp_info_validation(self):
        with pytest.raises(ValueError, match="fit in one byte"):
            logged(flow(FlowKey(Protocol.ICMP, SRC, DST, icmp=IcmpInfo(256, 0, 0))))
        with pytest.raises(ValueError, match="fit in two bytes"):
            logged(flow(FlowKey(Protocol.ICMP, SRC, DST, icmp=IcmpInfo(8, 0, 70000))))

    def test_family_flags(self):
        frame = logged(flow(tcp_key()), flow(FlowKey(Protocol.TCP, SRC6, DST6, 1, 2))).frame()
        assert frame.is_v6.tolist() == [False, True]


class TestFlowRecord:
    def test_totals_and_duration(self):
        frame = logged(flow(tcp_key(), 100.0, 160.0, (500, 15000, 5, 12))).frame()
        assert frame.total_bytes.tolist() == [15500]
        assert frame.duration.tolist() == [60.0]
        assert frame.packets.tolist() == [17]

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="cannot end before it starts"):
            logged(flow(tcp_key(), 100.0, 50.0))

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError, match="counters cannot be negative"):
            logged(flow(tcp_key(), 0.0, 1.0, (-5, 0, 0, 0)))

    def test_default_packets(self):
        assert default_packets(2800) == 2
        assert default_packets(0) == 0
        assert default_packets(1) == 1  # any byte moved is at least one packet
        assert default_packets(np.array([2800, 0, 1])).tolist() == [2, 0, 1]
