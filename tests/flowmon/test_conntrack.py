"""Tests for flow identity and a finished flow's final accounting."""

import numpy as np
import pytest

from repro.flowmon.conntrack import (
    FlowKey,
    FlowRecord,
    IcmpInfo,
    Protocol,
    default_packets,
)
from repro.net.addr import IpAddress

SRC = IpAddress.parse("192.168.1.10")
DST = IpAddress.parse("203.0.113.5")
SRC6 = IpAddress.parse("2001:db8:1::10")
DST6 = IpAddress.parse("2001:db8:2::5")


def tcp_key(sport=40000, dport=443):
    return FlowKey(Protocol.TCP, SRC, DST, sport, dport)


class TestFlowKey:
    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            FlowKey(Protocol.TCP, SRC, DST6, 1, 2)

    def test_icmp_requires_info(self):
        with pytest.raises(ValueError):
            FlowKey(Protocol.ICMP, SRC, DST)
        key = FlowKey(Protocol.ICMP, SRC, DST, icmp=IcmpInfo(8, 0, 1234))
        assert key.icmp.icmp_type == 8

    def test_icmp_rejects_ports(self):
        with pytest.raises(ValueError):
            FlowKey(Protocol.ICMP, SRC, DST, sport=1, icmp=IcmpInfo(8, 0, 1))

    def test_tcp_rejects_icmp_info(self):
        with pytest.raises(ValueError):
            FlowKey(Protocol.TCP, SRC, DST, 1, 2, icmp=IcmpInfo(8, 0, 1))

    def test_port_range(self):
        with pytest.raises(ValueError):
            FlowKey(Protocol.UDP, SRC, DST, 70000, 53)

    def test_icmp_info_validation(self):
        with pytest.raises(ValueError):
            IcmpInfo(256, 0, 0)
        with pytest.raises(ValueError):
            IcmpInfo(8, 0, 70000)

    def test_family_flags(self):
        assert not tcp_key().is_v6
        assert FlowKey(Protocol.TCP, SRC6, DST6, 1, 2).is_v6


class TestFlowRecord:
    def test_totals_and_duration(self):
        record = FlowRecord(tcp_key(), 100.0, 160.0, 500, 15000, 5, 12)
        assert record.total_bytes == 15500
        assert record.duration == 60.0
        assert record.total_packets == 17

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="cannot end before it starts"):
            FlowRecord(tcp_key(), 100.0, 50.0, 0, 0, 0, 0)

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError, match="counters cannot be negative"):
            FlowRecord(tcp_key(), 0.0, 1.0, -5, 0, 0, 0)

    def test_default_packets(self):
        assert default_packets(2800) == 2
        assert default_packets(0) == 0
        assert default_packets(1) == 1  # any byte moved is at least one packet
        assert default_packets(np.array([2800, 0, 1])).tolist() == [2, 0, 1]
