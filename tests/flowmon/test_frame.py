"""Tests for the columnar FlowFrame view of a monitor's flow log."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_models import FlowKey, FlowRecord, external_peer, observe, records
from repro.flowmon.conntrack import Protocol
from repro.flowmon.frame import (
    FLOW_DTYPE,
    SCOPE_CODES,
    day_sums,
    first_appearance,
    group_sums,
)
from repro.flowmon.monitor import FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import IpAddress, Prefix
from repro.traffic.apps import build_service_catalog
from repro.traffic.generate import TrafficGenerator
from repro.traffic.residences import residences_by_name
from repro.traffic.universe import ServiceUniverse
from repro.util.timeutil import DAY, HOUR


@pytest.fixture(scope="module")
def dataset():
    universe = ServiceUniverse(build_service_catalog())
    profile = residences_by_name()["A"]
    return TrafficGenerator(universe, seed=21).generate(profile, num_days=7)


def _simple_monitor() -> FlowMonitor:
    config = RouterConfig(
        name="T",
        lan_v4=Prefix.parse("192.168.0.0/24"),
        lan_v6=Prefix.parse("2001:db8::/56"),
    )
    return FlowMonitor(config)


def _flow(src: str, dst: str, sport: int, start: float, bytes_in: int = 1000):
    key = FlowKey(Protocol.TCP, IpAddress.parse(src), IpAddress.parse(dst), sport, 443)
    return FlowRecord(
        key=key,
        start_time=start,
        end_time=start + 10.0,
        bytes_out=200,
        bytes_in=bytes_in,
        packets_out=2,
        packets_in=3,
    )


class TestFrameConstruction:
    def test_row_order_matches_records(self, dataset):
        frame = dataset.monitor.frame()
        flows = records(dataset.monitor)
        assert len(frame) == len(flows)
        starts = np.array([r.start_time for r in flows])
        assert np.array_equal(frame.start_time, starts)
        volumes = np.array([r.total_bytes for r in flows])
        assert np.array_equal(frame.total_bytes, volumes)
        v6 = np.array([r.key.is_v6 for r in flows])
        assert np.array_equal(frame.is_v6, v6)

    def test_scope_split_matches_monitor(self, dataset):
        frame = dataset.monitor.frame()
        for scope in FlowScope:
            sub = frame.select(scope=scope)
            assert len(sub) == len(records(dataset.monitor, scope=scope))

    def test_day_and_hour_columns(self, dataset):
        frame = dataset.monitor.frame()
        assert np.array_equal(frame.day, (frame.start_time // DAY).astype(np.int32))
        assert np.array_equal(frame.hour, (frame.start_time // HOUR).astype(np.int64))

    def test_peers_interned_in_first_appearance_order(self):
        monitor = _simple_monitor()
        observe(monitor, _flow("192.168.0.2", "100.64.0.9", 1000, 5.0))
        observe(monitor, _flow("192.168.0.2", "100.64.0.7", 1001, 6.0))
        observe(monitor, _flow("192.168.0.3", "100.64.0.9", 1002, 7.0))
        frame = monitor.frame()
        assert [str(p) for p in frame.peers] == ["100.64.0.9", "100.64.0.7"]
        assert frame.peer.tolist() == [0, 1, 0]

    def test_internal_rows_have_no_peer(self, dataset):
        frame = dataset.monitor.frame()
        internal = frame.select(scope=FlowScope.INTERNAL)
        assert (internal.peer == -1).all()

    def test_dtype(self, dataset):
        assert dataset.monitor.frame().data.dtype == FLOW_DTYPE


class TestFrameCaching:
    """A monitor builds its frame once and keeps it; the log is built
    whole, and the tests' appender (``observe``) drops the frame itself."""

    def test_frame_cached_until_observe(self):
        monitor = _simple_monitor()
        observe(monitor, _flow("192.168.0.2", "100.64.0.9", 1000, 5.0))
        first = monitor.frame()
        assert monitor.frame() is first
        observe(monitor, _flow("192.168.0.2", "100.64.0.9", 1001, 6.0))
        second = monitor.frame()
        assert second is not first
        assert len(second) == 2
        assert monitor.frame() is second

    def test_dataset_frame_cached_and_attributed(self, dataset):
        frame = dataset.frame()
        assert dataset.frame() is frame
        assert frame.peer_asn is not None
        assert frame.peer_domain is not None
        assert len(frame.peer_asn) == len(frame.peers)

    def test_observe_grows_the_log(self):
        monitor = _simple_monitor()
        assert len(monitor.log) == 0
        observe(monitor, _flow("192.168.0.2", "100.64.0.9", 1000, 5.0))
        assert len(monitor.log) == 1


class TestAttribution:
    def test_flow_asn_matches_per_record_lookup(self, dataset):
        frame = dataset.frame()
        monitor = dataset.monitor
        routing = dataset.universe.routing
        external = frame.select(scope=FlowScope.EXTERNAL)
        external_records = records(monitor, scope=FlowScope.EXTERNAL)
        for i, record in enumerate(external_records[:300]):
            peer = external_peer(monitor.config, record)
            expected = routing.origin_of(peer)
            assert external.flow_asn[i] == (expected if expected is not None else -1)

    def test_unattributed_frame_raises(self):
        monitor = _simple_monitor()
        observe(monitor, _flow("192.168.0.2", "100.64.0.9", 1000, 5.0))
        frame = monitor.frame()
        with pytest.raises(ValueError):
            frame.flow_asn
        with pytest.raises(ValueError):
            frame.flow_domain

    def test_with_attribution_idempotent(self, dataset):
        frame = dataset.frame()
        again = frame.with_attribution(
            dataset.universe.routing, dataset.universe.rdns
        )
        assert again is frame

    def test_attributed_frame_with_no_peers(self, dataset):
        """A log with no external flows (zero interned peers) must yield
        all -1 AS/domain columns, not an IndexError."""
        monitor = _simple_monitor()
        observe(monitor, _flow("192.168.0.2", "192.168.0.3", 1000, 5.0))  # internal
        frame = monitor.frame().with_attribution(
            dataset.universe.routing, dataset.universe.rdns
        )
        assert len(frame.peers) == 0
        assert frame.flow_asn.tolist() == [-1]
        assert frame.flow_domain.tolist() == [-1]


class TestSelect:
    def test_select_day(self, dataset):
        frame = dataset.monitor.frame()
        sub = frame.select(day=3)
        assert (sub.day == 3).all()
        assert len(sub) == len(records(dataset.monitor, day=3))

    def test_select_no_filter_returns_self(self, dataset):
        frame = dataset.monitor.frame()
        assert frame.select() is frame

    def test_mask(self, dataset):
        frame = dataset.monitor.frame()
        sub = frame.mask(frame.is_v6)
        assert sub.is_v6.all()
        assert sub.peers is frame.peers


class TestGroupHelpers:
    def test_group_sums_first_appearance_order(self):
        keys = np.array([7, 3, 7, 9, 3, 7])
        values = np.array([1, 10, 100, 1000, 10000, 100000])
        uniq, counts, (sums,) = group_sums(keys, [values])
        assert uniq.tolist() == [7, 3, 9]
        assert counts.tolist() == [3, 2, 1]
        assert sums.tolist() == [100101, 10010, 1000]

    @settings(max_examples=100, derandomize=True)
    @given(
        st.lists(st.integers(min_value=-3, max_value=40), max_size=60),
        st.sampled_from([1, 1000]),  # 1 keeps keys dense; 1000 spreads them
        st.sampled_from([(np.int64, 0), (np.int64, 2**40), (np.int64, -(2**40)), (np.int32, -7)]),
    )
    def test_first_appearance_equals_a_dict_loop(self, values, stride, typed_offset):
        """Keys in a narrow range (interned by a scatter) and keys spread
        wide (sorted) intern exactly like a ``dict`` loop."""
        dtype, offset = typed_offset
        keys = np.array([v * stride + offset for v in values], dtype=dtype)
        index: dict[int, int] = {}
        inverse = [index.setdefault(key, len(index)) for key in keys.tolist()]
        uniq, got = first_appearance(keys)
        assert uniq.dtype == keys.dtype
        assert uniq.tolist() == list(index)
        assert got.dtype == np.int64
        assert got.tolist() == inverse

    def test_group_sums_empty(self):
        uniq, counts, (sums,) = group_sums(np.array([], dtype=np.int64), [np.array([], dtype=np.int64)])
        assert uniq.size == 0 and counts.size == 0 and sums.size == 0

    def test_group_sums_exact_for_large_ints(self):
        keys = np.array([1, 1])
        values = np.array([2**52 + 1, 2**52 + 1], dtype=np.int64)
        _, _, (sums,) = group_sums(keys, [values])
        assert int(sums[0]) == 2 * (2**52 + 1)

    def test_day_sums(self):
        day = np.array([0, 2, 0], dtype=np.int32)
        (sums,) = day_sums(day, [np.array([5, 7, 11], dtype=np.int64)])
        assert sums.tolist() == [16, 0, 7]

    def test_day_sums_empty_with_minlength(self):
        (sums,) = day_sums(
            np.array([], dtype=np.int32), [np.array([], dtype=np.int64)], minlength=4
        )
        assert sums.tolist() == [0, 0, 0, 0]

    def test_scope_codes_cover_enum(self):
        assert set(SCOPE_CODES) == set(FlowScope)
