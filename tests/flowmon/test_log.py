"""The column log: its row checks, its round trip through the reference
record projection, persistence."""

import numpy as np
import pytest

from reference_models import (
    AppendLog,
    FlowKey,
    FlowRecord,
    IcmpInfo,
    classify,
    observe,
    records,
)
from repro.flowmon.conntrack import Protocol
from repro.flowmon.frame import SCOPE_CODES
from repro.flowmon.monitor import FlowLog, FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import IpAddress, Prefix
from repro.util.timeutil import DAY

LAN4 = IpAddress.parse("192.168.1.10")
LAN6 = IpAddress.parse("2001:db8:77::10")
WAN4 = IpAddress.parse("198.51.100.7")
TCP, ICMP = Protocol.TCP.value, Protocol.ICMP.value


def make_monitor() -> FlowMonitor:
    return FlowMonitor(
        RouterConfig(
            name="T",
            lan_v4=Prefix.parse("192.168.1.0/24"),
            lan_v6=Prefix.parse("2001:db8:77::/64"),
        )
    )


def mixed_records(num_days: int = 3, flows_per_day: int = 40) -> list[FlowRecord]:
    """External, internal and ICMP flows over both families, appended
    out of canonical order (late days and scopes interleaved)."""
    flows = []
    for day in reversed(range(num_days)):
        base = day * DAY
        for i in range(flows_per_day):
            v6 = i % 2 == 0
            src = LAN6 if v6 else LAN4
            if i % 5 == 4:  # a LAN peer: internal flow
                dst = IpAddress.parse("2001:db8:77::20" if v6 else "192.168.1.20")
            elif v6:
                dst = IpAddress.v6((0x20010DB8 << 96) | (i % 7))
            else:
                dst = IpAddress.v4((198 << 24) | (51 << 16) | (100 << 8) | (i % 7))
            if i % 10 == 9:
                key = FlowKey(Protocol.ICMP, src, dst, icmp=IcmpInfo(8, 0, i))
            else:
                key = FlowKey(Protocol.TCP if i % 3 else Protocol.UDP, src, dst, 20000 + i, 443)
            start = base + i * 10.5
            flows.append(FlowRecord(key, start, start + 2.25, 100 + i, 9000 + i, 3, 8))
    return flows


def logged(flows) -> FlowMonitor:
    monitor = make_monitor()
    for record in flows:
        observe(monitor, record)
    return monitor


class TestSealChecks:
    """Each check a finished flow must pass, raised when the reference
    appender seals: its int64 columns go through ``FlowLog.from_columns``,
    so a value that a narrowing cast would wrap (``sport=70000``) is still
    refused."""

    GOOD = dict(
        protocol=TCP, src=LAN4, dst=WAN4, sport=40000, dport=443, start=5.0,
        end=6.0, bytes_out=10, bytes_in=20, packets_out=1, packets_in=1, icmp=None,
    )

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(dst=IpAddress.parse("2001:db8::1")), "share an address family"),
            (dict(sport=70000), "port 70000 out of range"),
            (dict(dport=-1), "port -1 out of range"),
            (dict(protocol=ICMP, sport=0, dport=0), "must carry ICMP info"),
            (dict(protocol=ICMP, icmp=(8, 0, 1)), "ICMP flows have no ports"),
            (dict(protocol=ICMP, sport=0, dport=0, icmp=(256, 0, 1)), "fit in one byte"),
            (dict(protocol=ICMP, sport=0, dport=0, icmp=(8, 300, 1)), "fit in one byte"),
            (dict(protocol=ICMP, sport=0, dport=0, icmp=(8, 0, 0x10000)), "fit in two bytes"),
            (dict(icmp=(8, 0, 1)), "only ICMP flows carry ICMP info"),
            (dict(end=4.0), "cannot end before it starts"),
            (dict(bytes_in=-1), "counters cannot be negative"),
            (dict(packets_out=-3), "counters cannot be negative"),
            (dict(start=-10.0, end=1.0), "before the sim epoch"),
        ],
        ids=[
            "family", "sport-range", "dport-range", "icmp-without-info",
            "icmp-with-ports", "icmp-type", "icmp-code", "icmp-id",
            "info-on-tcp", "end-before-start", "negative-bytes",
            "negative-packets", "negative-start",
        ],
    )
    def test_bad_row_refused_at_seal(self, change, message):
        log = AppendLog()
        log.append(**self.GOOD)
        log.append(**{**self.GOOD, **change})
        with pytest.raises(ValueError, match=message):
            log.seal()

    def test_good_rows_seal(self):
        log = AppendLog()
        log.append(**self.GOOD)
        log.append(**{**self.GOOD, "protocol": ICMP, "sport": 0, "dport": 0, "icmp": (0, 0, 9)})
        rows = log.seal()
        assert rows["icmp_type"].tolist() == [-1, 0]
        assert log.addresses == [LAN4, WAN4]
        assert rows["dst"].tolist() == [1, 1]

    def test_appends_after_a_seal_extend_the_log(self):
        log = AppendLog()
        log.append(**self.GOOD)
        log.seal()
        log.append(**{**self.GOOD, "start": 7.0, "end": 8.0})
        assert len(log) == 2
        assert log.rows["start"].tolist() == [5.0, 7.0]


class TestProjection:
    def test_lossless_and_order_preserving(self):
        flows = mixed_records()
        monitor = logged(flows)
        scope_code = {record: SCOPE_CODES[classify(monitor.config, record)] for record in flows}
        canonical = sorted(
            flows, key=lambda r: (int(r.start_time // DAY), scope_code[r])
        )
        assert records(monitor) == canonical
        for scope in FlowScope:
            assert records(monitor, scope=scope) == [
                r for r in canonical if classify(monitor.config, r) is scope
            ]
        assert records(monitor, day=1) == [
            r for r in canonical if int(r.start_time // DAY) == 1
        ]
        frame = monitor.frame()
        assert np.unique(frame.day).tolist() == [0, 1, 2]
        day0 = frame.select(day=0).scope.tolist()
        assert list(dict.fromkeys(day0)) == [
            SCOPE_CODES[FlowScope.EXTERNAL], SCOPE_CODES[FlowScope.INTERNAL]
        ]
        assert list(zip(frame.day.tolist(), frame.scope.tolist())) == [
            (int(r.start_time // DAY), scope_code[r]) for r in canonical
        ]

    def test_v6_addresses_above_64_bits_survive(self):
        monitor = logged(mixed_records(num_days=1, flows_per_day=4))
        restored = {r.key.dst for r in records(monitor)}
        assert restored == {r.key.dst for r in mixed_records(num_days=1, flows_per_day=4)}
        assert any(a.value >> 64 for a in restored)  # genuinely 128-bit

    def test_addresses_are_interned(self):
        monitor = logged(mixed_records(num_days=2))
        interned = {id(address) for address in monitor.log.addresses}
        for record in records(monitor):
            assert id(record.key.src) in interned
            assert id(record.key.dst) in interned
        assert all(id(peer) in interned for peer in monitor.frame().peers)

    def test_empty_log(self):
        monitor = make_monitor()
        assert records(monitor) == []
        assert len(monitor.frame()) == 0

    def test_frame_from_projected_records_equals_derived_frame(self, generated):
        for dataset in generated.datasets.values():
            rebuilt = FlowMonitor(dataset.monitor.config)
            for record in records(dataset.monitor):
                observe(rebuilt, record)
            want, got = dataset.monitor.frame(), rebuilt.frame()
            assert got.data.tobytes() == want.data.tobytes()
            assert got.peers == want.peers


@pytest.fixture(scope="module")
def generated():
    from repro.datasets import build_residence_study

    return build_residence_study(
        num_days=3, seed=31, residences=("A", "C"), parallel=False
    )


class TestStoreRoundTrip:
    def test_generated_study_round_trips(self, generated):
        from repro.store.serialize import PAYLOAD_FILE, dump_value, load_value

        for dataset in generated.datasets.values():
            dataset.frame()  # persisted attributed, as the store does
        files = dump_value(generated)
        payload = files[PAYLOAD_FILE]
        assert b"FlowRecord" not in payload
        assert b"LazyDailyLogs" not in payload and b"flowmon.pack" not in payload
        clone = load_value(files)
        assert list(clone.datasets) == list(generated.datasets)
        for name, dataset in generated.datasets.items():
            loaded = clone.datasets[name]
            assert len(loaded.monitor.log) == len(dataset.monitor.log)
            assert loaded._frame is not None  # no attribution work on load
            want, got = dataset.frame(), loaded.frame()
            assert got.data.tobytes() == want.data.tobytes()
            assert tuple(map(str, got.peers)) == tuple(map(str, want.peers))
            assert np.array_equal(got.peer_asn, want.peer_asn)
            assert np.array_equal(got.peer_domain, want.peer_domain)
            assert got.domains == want.domains
            assert records(loaded.monitor) == records(dataset.monitor)
            assert type(loaded.monitor.log) is FlowLog
