"""FlowFrame parity: the vectorized analyses must reproduce the original
record-loop implementations *exactly* -- same ints, same floats, same
ordering -- on a seeded dataset.

The reference implementations below are the pre-columnar bodies of the
:mod:`repro.core.client` functions, kept verbatim (record loops over the
reference projection ``records(monitor)`` of ``reference_models.py``)
so any numerical or ordering drift in the vectorized rewrites fails
loudly.

The records and the frame both derive from one column log, so these
tests pin the analyses, not generation: the generated frames themselves are
pinned by digest in ``tests/traffic/test_generate_parallel.py``.
"""

import numpy as np
import pytest

from reference_models import external_peer, records
from repro.core.client import (
    as_traffic_breakdown,
    compute_residence_stats,
    daily_fractions,
    domain_traffic_breakdown,
    heavy_hitter_days,
    hourly_fraction_series,
    protocol_mix,
)
from repro.flowmon.monitor import FlowScope
from repro.net.psl import default_psl
from repro.traffic.apps import build_service_catalog
from repro.traffic.generate import TrafficGenerator
from repro.traffic.residences import build_paper_residences
from repro.traffic.universe import ServiceUniverse
from repro.util.timeutil import HOUR, day_index

DAYS = 10
SEED = 99


@pytest.fixture(scope="module")
def datasets():
    universe = ServiceUniverse(build_service_catalog())
    generator = TrafficGenerator(universe, seed=SEED)
    return generator.generate_all(
        build_paper_residences(), num_days=DAYS, parallel=False
    )


# -- reference (pre-columnar) implementations --------------------------------


def ref_scope_stats(flows):
    total_bytes = v6_bytes = 0
    total_flows = v6_flows = 0
    per_day: dict[int, list[int]] = {}
    for record in flows:
        volume = record.total_bytes
        total_bytes += volume
        total_flows += 1
        day = day_index(record.start_time)
        bucket = per_day.setdefault(day, [0, 0, 0, 0])
        bucket[0] += volume
        bucket[2] += 1
        if record.key.is_v6:
            v6_bytes += volume
            v6_flows += 1
            bucket[1] += volume
            bucket[3] += 1
    daily_byte_fracs = [b[1] / b[0] for b in per_day.values() if b[0] > 0]
    daily_flow_fracs = [b[3] / b[2] for b in per_day.values() if b[2] > 0]
    return total_bytes, v6_bytes, total_flows, v6_flows, daily_byte_fracs, daily_flow_fracs


def ref_daily_fractions(dataset, scope, metric):
    per_day: dict[int, list[float]] = {}
    for record in records(dataset.monitor, scope=scope):
        day = day_index(record.start_time)
        bucket = per_day.setdefault(day, [0.0, 0.0])
        amount = float(record.total_bytes) if metric == "bytes" else 1.0
        bucket[0] += amount
        if record.key.is_v6:
            bucket[1] += amount
    return [
        bucket[1] / bucket[0]
        for _, bucket in sorted(per_day.items())
        if bucket[0] > 0
    ]


def ref_hourly_series(dataset, scope, metric, start_day, num_days):
    hours = num_days * 24
    totals = np.zeros(hours)
    v6 = np.zeros(hours)
    start_time = start_day * 24 * HOUR
    for record in records(dataset.monitor, scope=scope):
        offset = record.start_time - start_time
        if offset < 0:
            continue
        hour = int(offset // HOUR)
        if hour >= hours:
            continue
        amount = float(record.total_bytes) if metric == "bytes" else 1.0
        totals[hour] += amount
        if record.key.is_v6:
            v6[hour] += amount
    with np.errstate(invalid="ignore", divide="ignore"):
        fractions = np.where(totals > 0, v6 / np.maximum(totals, 1e-12), np.nan)
    observed = ~np.isnan(fractions)
    indices = np.arange(hours)
    fractions[~observed] = np.interp(
        indices[~observed], indices[observed], fractions[observed]
    )
    return fractions


def ref_as_breakdown(dataset, min_volume_share=0.0001):
    routing = dataset.universe.routing
    registry = dataset.universe.registry
    monitor = dataset.monitor
    per_asn: dict[int, list[int]] = {}
    grand_total = 0
    for record in records(dataset.monitor, scope=FlowScope.EXTERNAL):
        peer = external_peer(monitor.config, record)
        if peer is None:
            continue
        asn = routing.origin_of(peer)
        if asn is None:
            continue
        bucket = per_asn.setdefault(asn, [0, 0])
        volume = record.total_bytes
        bucket[0] += volume
        grand_total += volume
        if record.key.is_v6:
            bucket[1] += volume
    threshold = grand_total * min_volume_share
    entries = []
    for asn, (total, v6) in per_asn.items():
        if total < threshold:
            continue
        info = registry.lookup(asn)
        if info is None:
            continue
        entries.append((info.asn, total, v6))
    entries.sort(key=lambda e: e[1], reverse=True)
    return entries


def ref_domain_breakdown(dataset):
    rdns = dataset.universe.rdns
    monitor = dataset.monitor
    psl = default_psl()
    per_domain: dict[str, list[int]] = {}
    for record in records(dataset.monitor, scope=FlowScope.EXTERNAL):
        peer = external_peer(monitor.config, record)
        if peer is None:
            continue
        domain = rdns.lookup_etld1(peer, psl)
        if domain is None:
            continue
        bucket = per_domain.setdefault(domain, [0, 0])
        bucket[0] += record.total_bytes
        if record.key.is_v6:
            bucket[1] += record.total_bytes
    entries = [(d, t, v) for d, (t, v) in per_domain.items()]
    entries.sort(key=lambda e: e[1], reverse=True)
    return entries


def ref_heavy_hitter_days(dataset, low_quantile=0.10, high_quantile=0.90, top_ases=3):
    routing = dataset.universe.routing
    monitor = dataset.monitor
    per_day: dict[int, dict] = {}
    for record in records(dataset.monitor, scope=FlowScope.EXTERNAL):
        day = day_index(record.start_time)
        bucket = per_day.setdefault(day, {"total": 0, "v6": 0, "by_asn": {}})
        volume = record.total_bytes
        bucket["total"] += volume
        if record.key.is_v6:
            bucket["v6"] += volume
        peer = external_peer(monitor.config, record)
        if peer is not None:
            asn = routing.origin_of(peer)
            if asn is not None:
                bucket["by_asn"][asn] = bucket["by_asn"].get(asn, 0) + volume
    days = {day: b for day, b in per_day.items() if b["total"] > 0}
    if not days:
        return [], []
    fractions = {day: b["v6"] / b["total"] for day, b in days.items()}
    values = np.asarray(list(fractions.values()))
    low_cut = float(np.quantile(values, low_quantile))
    high_cut = float(np.quantile(values, high_quantile))

    def build(day):
        bucket = days[day]
        ranked = sorted(bucket["by_asn"].items(), key=lambda kv: -kv[1])[:top_ases]
        return (day, fractions[day], bucket["total"], tuple(ranked))

    low = [build(d) for d in sorted(days) if fractions[d] <= low_cut]
    high = [build(d) for d in sorted(days) if fractions[d] >= high_cut]
    return low, high


def ref_protocol_mix(dataset, scope):
    bytes_by = {"IPv4": {}, "IPv6": {}}
    flows_by = {"IPv4": {}, "IPv6": {}}
    for record in records(dataset.monitor, scope=scope):
        family = "IPv6" if record.key.is_v6 else "IPv4"
        protocol = record.key.protocol.name
        bytes_by[family][protocol] = (
            bytes_by[family].get(protocol, 0) + record.total_bytes
        )
        flows_by[family][protocol] = flows_by[family].get(protocol, 0) + 1
    return bytes_by, flows_by


# -- parity assertions --------------------------------------------------------


class TestTable1Parity:
    def test_scope_stats_exact(self, datasets):
        for name, dataset in datasets.items():
            stats = compute_residence_stats(dataset)
            for scope_stats, scope in (
                (stats.external, FlowScope.EXTERNAL),
                (stats.internal, FlowScope.INTERNAL),
            ):
                flows = records(dataset.monitor, scope=scope)
                tb, v6b, tf, v6f, dbf, dff = ref_scope_stats(flows)
                assert scope_stats.total_bytes == tb
                assert scope_stats.v6_bytes == v6b
                assert scope_stats.v4_bytes == tb - v6b
                assert scope_stats.total_flows == tf
                assert scope_stats.v6_flows == v6f
                assert scope_stats.byte_fraction_overall == (
                    v6b / tb if tb else 0.0
                )
                assert scope_stats.byte_fraction_daily_mean == (
                    float(np.mean(dbf)) if dbf else 0.0
                )
                assert scope_stats.byte_fraction_daily_std == (
                    float(np.std(dbf)) if dbf else 0.0
                )
                assert scope_stats.flow_fraction_daily_mean == (
                    float(np.mean(dff)) if dff else 0.0
                )
                assert scope_stats.flow_fraction_daily_std == (
                    float(np.std(dff)) if dff else 0.0
                )


class TestSeriesParity:
    @pytest.mark.parametrize("metric", ["bytes", "flows"])
    @pytest.mark.parametrize("scope", [FlowScope.EXTERNAL, FlowScope.INTERNAL])
    def test_daily_fractions_exact(self, datasets, scope, metric):
        for dataset in datasets.values():
            assert daily_fractions(dataset, scope=scope, metric=metric) == (
                ref_daily_fractions(dataset, scope, metric)
            )

    @pytest.mark.parametrize("metric", ["bytes", "flows"])
    def test_hourly_series_exact(self, datasets, metric):
        for dataset in datasets.values():
            got = hourly_fraction_series(dataset, metric=metric)
            want = ref_hourly_series(
                dataset, FlowScope.EXTERNAL, metric, 0, dataset.num_days
            )
            assert np.array_equal(got, want)

    def test_hourly_series_window_exact(self, datasets):
        dataset = datasets["A"]
        got = hourly_fraction_series(dataset, start_day=3, num_days=4)
        want = ref_hourly_series(dataset, FlowScope.EXTERNAL, "bytes", 3, 4)
        assert np.array_equal(got, want)


class TestBreakdownParity:
    @pytest.mark.parametrize("share", [0.0, 0.0001, 0.01])
    def test_as_breakdown_exact(self, datasets, share):
        for dataset in datasets.values():
            got = [
                (e.info.asn, e.total_bytes, e.v6_bytes)
                for e in as_traffic_breakdown(dataset, min_volume_share=share)
            ]
            assert got == ref_as_breakdown(dataset, share)

    def test_domain_breakdown_exact(self, datasets):
        for dataset in datasets.values():
            got = [
                (e.domain, e.total_bytes, e.v6_bytes)
                for e in domain_traffic_breakdown(dataset)
            ]
            assert got == ref_domain_breakdown(dataset)

    def test_heavy_hitter_days_exact(self, datasets):
        for dataset in datasets.values():
            low, high = heavy_hitter_days(dataset)
            ref_low, ref_high = ref_heavy_hitter_days(dataset)
            got_low = [
                (d.day, d.fraction_v6, d.total_bytes, d.dominant_ases) for d in low
            ]
            got_high = [
                (d.day, d.fraction_v6, d.total_bytes, d.dominant_ases) for d in high
            ]
            assert got_low == ref_low
            assert got_high == ref_high

    @pytest.mark.parametrize("scope", [FlowScope.EXTERNAL, FlowScope.INTERNAL])
    def test_protocol_mix_exact(self, datasets, scope):
        for dataset in datasets.values():
            mixes = protocol_mix(dataset, scope=scope)
            ref_bytes, ref_flows = ref_protocol_mix(dataset, scope)
            for family in ("IPv4", "IPv6"):
                assert mixes[family].bytes_by_protocol == ref_bytes[family]
                assert mixes[family].flows_by_protocol == ref_flows[family]
                # dict insertion order must match the record loop's, too:
                # stable sorts downstream break ties on it.
                assert list(mixes[family].bytes_by_protocol) == list(ref_bytes[family])
