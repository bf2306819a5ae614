"""Memory observability: tracemalloc span peaks, process RSS/GC gauges.

Three instruments land on the shared metrics registry:

* ``process_rss_bytes`` -- resident set size, read from
  ``/proc/self/statm`` as resident pages times the page size (portable
  fallback: ``resource.getrusage`` peak).  Refreshed by :func:`refresh_process_gauges`, which the
  ``/metrics`` scrape path calls so every scrape carries a current
  reading.
* ``build_peak_bytes{layer}`` -- tracemalloc peak of the last profiled
  ``build:<layer>`` span (written by :mod:`repro.prof.capture`).
* ``gc_collections_total{gen}`` -- cumulative collector runs per
  generation, maintained as deltas against the interpreter's own
  counters so the metric behaves like a counter across scrapes.

Span peaks nest: tracemalloc's peak register is process-global and
:func:`span_memory_start` resets it per span, so an inner span's peak
is folded back into every open ancestor's running maximum -- the outer
``build:observatory`` span reports the true peak even when an inner
span reset the register halfway through.

With :mod:`repro.prof.capture`, this is the only module allowed to
import ``tracemalloc`` (replint REP012).
"""

from __future__ import annotations

import gc
import os
import threading
import tracemalloc

from repro.telemetry import registry as _registry

_RSS = _registry().gauge(
    "process_rss_bytes", "resident set size of this process"
)
_BUILD_PEAK = _registry().gauge(
    "build_peak_bytes",
    "tracemalloc peak of the last profiled build span, per layer",
    ("layer",),
)
_GC_COLLECTIONS = _registry().counter(
    "gc_collections_total", "garbage collector runs, per generation", ("gen",)
)

_GC_LOCK = threading.Lock()
_GC_SEEN: list[int] = [0, 0, 0]

#: Open span-memory captures, outermost first: ``[span_token, peak]``
#: pairs.  Guarded by the GIL in practice; capture start/stop happens
#: under the tracer's span enter/exit on one thread at a time.
_MEM_STACK: list[list] = []

_TRACING_STARTED_HERE = False


def rss_bytes() -> int | None:
    """Current resident set size, or ``None`` when unreadable."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is the peak, in KiB on Linux / bytes on macOS --
        # a coarse fallback, but monotone and better than nothing.
        scale = 1 if usage.ru_maxrss > 1 << 32 else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:  # pragma: no cover - platform without rusage
        return None


def gc_counts() -> dict[str, int]:
    """Cumulative collector runs per generation (stable key order)."""
    stats = gc.get_stats()
    return {str(gen): int(stat["collections"]) for gen, stat in enumerate(stats)}


def refresh_process_gauges() -> None:
    """Bring the process gauges current (the scrape-path hook)."""
    rss = rss_bytes()
    if rss is not None:
        _RSS.set(float(rss))
    with _GC_LOCK:
        for gen, stat in enumerate(gc.get_stats()):
            collections = int(stat["collections"])
            delta = collections - _GC_SEEN[gen]
            if delta > 0:
                _GC_COLLECTIONS.inc(delta, gen=str(gen))
                _GC_SEEN[gen] = collections


def record_build_peak(layer: str, peak_bytes: int) -> None:
    """Publish one profiled build span's tracemalloc peak."""
    _BUILD_PEAK.set(float(peak_bytes), layer=layer)


def build_peaks() -> dict[str, int]:
    """Per-layer peaks recorded so far (``/healthz`` breakdown input)."""
    return {
        labels[0]: int(value) for labels, value in _BUILD_PEAK.sample_items()
    }


def process_document() -> dict:
    """The ``/healthz`` ``process`` section."""
    return {
        "rss_bytes": rss_bytes(),
        "gc_collections": gc_counts(),
        "tracemalloc": tracemalloc.is_tracing(),
    }


# -- span-scoped peak capture (called by repro.prof.capture) ------------------


def start_tracing() -> None:
    """Begin tracemalloc tracing if nothing else already did."""
    global _TRACING_STARTED_HERE
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        _TRACING_STARTED_HERE = True


def stop_tracing() -> None:
    """End tracing, but only if :func:`start_tracing` began it."""
    global _TRACING_STARTED_HERE
    if _TRACING_STARTED_HERE and tracemalloc.is_tracing():
        tracemalloc.stop()
    _TRACING_STARTED_HERE = False
    _MEM_STACK.clear()


def span_memory_start() -> list:
    """Open one nested peak capture; returns the token to stop with."""
    if not tracemalloc.is_tracing():  # pragma: no cover - defensive
        return []
    _, peak = tracemalloc.get_traced_memory()
    # Fold the register's current peak into every open ancestor before
    # resetting it for this span's window.
    for entry in _MEM_STACK:
        entry[1] = max(entry[1], peak)
    tracemalloc.reset_peak()
    token = [object(), 0]
    _MEM_STACK.append(token)
    return token


def span_memory_stop(token: list) -> int | None:
    """Close one capture; returns the span's peak traced bytes."""
    if not token:
        return None
    if not tracemalloc.is_tracing():  # pragma: no cover - defensive
        return None
    _, peak = tracemalloc.get_traced_memory()
    try:
        _MEM_STACK.remove(token)
    except ValueError:  # pragma: no cover - unbalanced stop
        return None
    span_peak = max(token[1], peak)
    for entry in _MEM_STACK:
        entry[1] = max(entry[1], span_peak)
    tracemalloc.reset_peak()
    return int(span_peak)
