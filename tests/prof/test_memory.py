"""Memory accounting: RSS/GC gauges, tracemalloc span-peak nesting."""

import gc
from pathlib import Path

import pytest

from repro.prof.memory import (
    build_peaks,
    gc_counts,
    process_document,
    record_build_peak,
    refresh_process_gauges,
    rss_bytes,
    span_memory_start,
    span_memory_stop,
    start_tracing,
    stop_tracing,
)
from repro.telemetry import registry


class TestProcessGauges:
    def test_rss_is_a_positive_byte_count(self):
        rss = rss_bytes()
        assert rss is not None
        assert rss > 1_000_000  # a Python process is megabytes, not bytes

    @pytest.mark.skipif(
        not Path("/proc/self/status").is_file(), reason="no procfs on this platform"
    )
    def test_rss_matches_vmrss(self):
        """Resident pages from ``statm`` times the page size is the
        kernel's ``VmRSS``, up to what the process maps between reads."""
        rss = rss_bytes()
        with open("/proc/self/status", encoding="ascii") as status:
            [line] = [line for line in status if line.startswith("VmRSS:")]
        assert abs(rss - int(line.split()[1]) * 1024) <= 1 << 20

    def test_gc_counts_cover_all_generations(self):
        counts = gc_counts()
        assert list(counts) == ["0", "1", "2"]
        assert all(value >= 0 for value in counts.values())

    def test_refresh_sets_the_rss_gauge(self):
        refresh_process_gauges()
        rendered = registry().render_prometheus()
        line = next(
            row for row in rendered.splitlines()
            if row.startswith("process_rss_bytes ")
        )
        assert float(line.split()[1]) > 0

    def test_refresh_moves_gc_counter_like_a_counter(self):
        refresh_process_gauges()

        def total():
            return sum(
                value
                for (metric, _), value in _samples()
                if metric == "gc_collections_total"
            )

        def _samples():
            rendered = registry().render_prometheus().splitlines()
            for row in rendered:
                if row.startswith("gc_collections_total{"):
                    labels, value = row.rsplit(" ", 1)
                    yield (("gc_collections_total", labels), float(value))

        before = total()
        gc.collect()
        refresh_process_gauges()
        assert total() >= before  # monotone across refreshes

    def test_process_document_shape(self):
        document = process_document()
        assert set(document) == {"rss_bytes", "gc_collections", "tracemalloc"}
        assert isinstance(document["tracemalloc"], bool)

    def test_build_peaks_roundtrip(self):
        record_build_peak("memtest", 12345)
        assert build_peaks()["memtest"] == 12345


class TestSpanPeaks:
    def test_peak_covers_the_span_allocation(self):
        start_tracing()
        try:
            token = span_memory_start()
            blob = bytearray(3_000_000)
            del blob
            peak = span_memory_stop(token)
        finally:
            stop_tracing()
        assert peak is not None
        assert peak >= 3_000_000

    def test_nested_peaks_fold_into_ancestors(self):
        # The inner span resets the global peak register; the outer
        # span's answer must still include the inner allocation.
        start_tracing()
        try:
            outer = span_memory_start()
            inner = span_memory_start()
            blob = bytearray(3_000_000)
            del blob
            inner_peak = span_memory_stop(inner)
            outer_peak = span_memory_stop(outer)
        finally:
            stop_tracing()
        assert inner_peak >= 3_000_000
        assert outer_peak >= inner_peak

    def test_stop_without_tracing_is_none_not_crash(self):
        stop_tracing()
        if process_document()["tracemalloc"]:
            pytest.skip("tracemalloc enabled outside repro.prof")
        assert span_memory_stop([]) is None
        assert span_memory_start() == []
