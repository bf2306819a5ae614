"""Instrument semantics: typing, label keying, snapshot/merge, threads."""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.telemetry import DEFAULT_BUCKETS, MetricsRegistry, registry

GOLDEN = Path(__file__).parent / "golden"


class TestCounter:
    def test_monotonic_increments_accumulate(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations", ("kind",))
        c.inc(kind="read")
        c.inc(2, kind="read")
        c.inc(kind="write")
        assert c.value(kind="read") == 3
        assert c.value(kind="write") == 1
        assert c.value(kind="never") == 0

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelname_set_is_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations", ("kind",))
        with pytest.raises(ValueError):
            c.inc()  # missing the declared label
        with pytest.raises(ValueError):
            c.inc(kind="read", extra="nope")


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("entries", "cache entries")
        g.set(5)
        g.set(3)
        assert g.value() == 3


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("seconds", "durations", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        ((_, sample),) = h.sample_items()
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)
        assert sample["buckets"] == [1, 1, 1]  # per-bucket, +Inf last

    def test_default_buckets_cover_sub_ms_to_10s(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        first = reg.counter("ops_total", "operations", ("kind",))
        again = reg.counter("ops_total", "operations", ("kind",))
        assert first is again

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "operations")
        with pytest.raises(ValueError):
            reg.gauge("ops_total", "operations")

    def test_labelname_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "operations", ("kind",))
        with pytest.raises(ValueError):
            reg.counter("ops_total", "operations", ("other",))

    def test_process_registry_is_a_singleton(self):
        assert registry() is registry()

    def test_snapshot_roundtrips_through_merge(self):
        src = MetricsRegistry()
        src.counter("ops_total", "operations", ("kind",)).inc(2, kind="read")
        src.gauge("entries", "entries").set(7)
        src.histogram("seconds", "durations", buckets=(1.0,)).observe(0.5)
        dst = MetricsRegistry()
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_merge_adds_counters_and_histograms_last_wins_gauges(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("ops_total", "operations").inc(n)
            reg.gauge("entries", "entries").set(n)
            reg.histogram("seconds", "durations", buckets=(1.0,)).observe(n)
        a.merge(b.snapshot())
        assert a.get("ops_total").value() == 3
        assert a.get("entries").value() == 2
        ((_, sample),) = a.get("seconds").sample_items()
        assert sample["count"] == 2 and sample["sum"] == pytest.approx(3.0)

    def test_merge_rejects_bucket_bound_mismatch(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("seconds", "durations", buckets=(1.0,)).observe(0.5)
        b.histogram("seconds", "durations", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_merge_is_order_independent_bit_identical(self):
        # Dyadic durations (n/4) add exactly in any order; real parallel
        # runs merge in task-index order anyway (procpool iterates
        # futures by index), which pins bit-identity for float sums too.
        shards = []
        for n in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("ops_total", "operations", ("kind",)).inc(n, kind=f"k{n}")
            reg.histogram("seconds", "durations").observe(n / 4)
            shards.append(reg.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in shards:
            forward.merge(snap)
        for snap in reversed(shards):
            backward.merge(snap)
        assert json.dumps(forward.snapshot(), sort_keys=True) == json.dumps(
            backward.snapshot(), sort_keys=True
        )

    def test_reset_zeroes_samples_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations")
        c.inc(4)
        reg.reset()
        assert reg.get("ops_total") is c
        assert c.value() == 0


class TestThreadSafety:
    """The serve tier counts from the event loop and from executor
    threads at once: no increment may be lost."""

    THREADS, INCREMENTS = 16, 10_000

    def test_concurrent_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("events_total", "events", ("event",))
        start = threading.Barrier(self.THREADS)

        def work():
            start.wait()
            for _ in range(self.INCREMENTS):
                counter.inc(event="served")

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value(event="served") == self.THREADS * self.INCREMENTS


class TestPrometheusGolden:
    """The full text exposition, blessed: REPRO_UPDATE_GOLDEN=1 to update."""

    def build(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        c = reg.counter("serve_requests_total", "requests served", ("endpoint",))
        c.inc(3, endpoint="/healthz")
        c.inc(1, endpoint='/v1/artifact/"quoted"\npath\\x')  # escaping
        reg.gauge("hot_cache_entries", "hot cache size").set(12)
        h = reg.histogram("request_seconds", "latency", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        return reg

    def test_rendered_exposition_matches_golden(self):
        rendered = self.build().render_prometheus()
        golden_path = GOLDEN / "metrics.prom"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.mkdir(exist_ok=True)
            golden_path.write_text(rendered)
        assert golden_path.is_file(), (
            "missing golden exposition; generate with REPRO_UPDATE_GOLDEN=1"
        )
        assert rendered == golden_path.read_text(), (
            "the Prometheus exposition drifted from "
            "tests/telemetry/golden/metrics.prom; if intentional, regenerate "
            "with REPRO_UPDATE_GOLDEN=1 and commit the diff"
        )

    def test_exposition_shape(self):
        rendered = self.build().render_prometheus()
        lines = rendered.splitlines()
        assert rendered.endswith("\n")
        for name, kind in (
            ("serve_requests_total", "counter"),
            ("hot_cache_entries", "gauge"),
            ("request_seconds", "histogram"),
        ):
            assert f"# TYPE {name} {kind}" in lines
        assert 'request_seconds_bucket{le="+Inf"} 4' in lines
        assert "request_seconds_count 4" in lines
