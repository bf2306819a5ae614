"""repro.prof: the attribution plane -- CPU profiles and memory.

The third observability layer, composing with metrics and spans:

* :mod:`repro.prof.capture` hooks ``cProfile`` captures onto matching
  trace spans (``build:*``, ``sweep:*``, ``serve:request``) -- the
  deterministic call-tree lands on ``Span.profile``.
* :mod:`repro.prof.tree` builds those trees and exports
  speedscope/flamegraph documents.
* :mod:`repro.prof.memory` owns tracemalloc span peaks and the
  process RSS/GC gauges (``process_rss_bytes``,
  ``build_peak_bytes{layer}``, ``gc_collections_total{gen}``).

Export surfaces: ``GET /v1/profile`` on the serve tier and
``python -m repro prof`` on the command line.  replint REP012 confines
``cProfile``/``pstats``/``tracemalloc`` imports to this package.
Performance claims across commits come from ``perfbench/``, which the
CI perf gate runs in paired checkouts.
"""

from repro.prof.capture import (
    DEFAULT_MEMORY_SPANS,
    DEFAULT_SPANS,
    ProfileConfig,
    disable_profiling,
    enable_profiling,
    match_span,
    profile_entries,
    profiled_spans,
    profiling,
    profiling_enabled,
)
from repro.prof.memory import (
    build_peaks,
    process_document,
    record_build_peak,
    refresh_process_gauges,
    rss_bytes,
)
from repro.prof.tree import (
    build_call_tree,
    frame_of,
    speedscope_document,
    tree_projection,
)

__all__ = [
    "DEFAULT_MEMORY_SPANS",
    "DEFAULT_SPANS",
    "ProfileConfig",
    "disable_profiling",
    "enable_profiling",
    "match_span",
    "profile_entries",
    "profiled_spans",
    "profiling",
    "profiling_enabled",
    "build_peaks",
    "process_document",
    "record_build_peak",
    "refresh_process_gauges",
    "rss_bytes",
    "build_call_tree",
    "frame_of",
    "speedscope_document",
    "tree_projection",
]
