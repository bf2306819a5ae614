"""Build-span tracing: a tree of monotonic-clock timed spans.

``span("build:traffic", layer="traffic")`` opens one node; nested
``with`` blocks nest nodes; leaving the outermost span records the
completed tree in a bounded process-wide buffer (:func:`recent_spans`,
what ``GET /v1/trace`` and ``--telemetry-json`` read).  Durations come
from :func:`time.perf_counter` -- REP001 bans wall clocks and entropy
in build code, not the monotonic clock, and no span timing ever enters
artifact bytes, digests, or cache keys.  Wall-clock stamps appear only
at export time (:func:`telemetry_document`), explicitly waived.

Two export shapes:

* :func:`span_tree` -- the compact JSON tree (name, duration_ms,
  self_ms, labels, children), the ``/v1/trace`` wire format.
* :func:`chrome_trace` -- chrome://tracing / Perfetto "Trace Event
  Format" (phase-``X`` complete events, microsecond timestamps
  relative to the earliest recorded span), ``python -m repro trace
  --format chrome``.

The span stack is a ``threading.local``: the serving tier traces
executor-thread builds concurrently with event-loop requests without
interleaving their trees.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.telemetry.metrics import registry

#: Completed root spans kept for ``/v1/trace`` (older ones fall off).
_RECENT_LIMIT = 256

_RECENT: deque["Span"] = deque(maxlen=_RECENT_LIMIT)
_RECENT_LOCK = threading.Lock()


class _Stack(threading.local):
    def __init__(self) -> None:
        self.spans: list["Span"] = []


_STACK = _Stack()

#: The installed span-profiling hook (``repro.prof.capture`` object
#: with ``start(span) -> token|None`` / ``stop(span, token)``), or
#: ``None`` -- the default, costing one attribute check per span.  The
#: indirection keeps this module free of profiler imports (REP012):
#: the tracer knows *that* a span can be profiled, never *how*.
_PROFILE_HOOK: Any = None


def set_profile_hook(hook: Any) -> None:
    """Install (or with ``None`` remove) the span-profiling hook."""
    global _PROFILE_HOOK
    _PROFILE_HOOK = hook


@dataclass
class Span:
    """One timed node: a name, labels, a duration, child spans."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    started: float = 0.0  # perf_counter at __enter__ (process-relative)
    duration_s: float = 0.0
    children: list["Span"] = field(default_factory=list)
    discarded: bool = False
    #: Call-tree document attached by ``repro.prof`` when span-scoped
    #: CPU profiling is enabled and this span matched a pattern.
    profile: dict | None = None
    #: tracemalloc peak of this span's window (memory profiling only).
    peak_bytes: int | None = None

    def discard(self) -> None:
        """Drop this span (and its subtree) instead of recording it.

        The serving fast path uses this: a ``hot_only`` probe that
        misses returns ``None`` and re-runs in an executor thread --
        recording both attempts would double-count the request.
        """
        self.discarded = True

    @property
    def self_s(self) -> float:
        """Time spent in this span outside any child span."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))


@contextmanager
def span(name: str, **labels: Any) -> Iterator[Span]:
    """Open one span; nests under the current span of this thread.

    Yields the :class:`Span` so callers can add labels mid-flight
    (``sp.labels["status"] = "200"``) or :meth:`~Span.discard` it.
    """
    node = Span(name=name, labels={k: str(v) for k, v in labels.items()})
    hook = _PROFILE_HOOK
    token = hook.start(node) if hook is not None else None
    node.started = time.perf_counter()
    _STACK.spans.append(node)
    try:
        yield node
    finally:
        node.duration_s = time.perf_counter() - node.started
        if token is not None:
            hook.stop(node, token)
        _STACK.spans.pop()
        if not node.discarded:
            if _STACK.spans:
                _STACK.spans[-1].children.append(node)
            else:
                with _RECENT_LOCK:
                    _RECENT.append(node)


def current_span() -> Span | None:
    """The innermost open span of this thread (``None`` outside any)."""
    return _STACK.spans[-1] if _STACK.spans else None


def recent_spans(last: int | None = None) -> list[Span]:
    """The most recent completed root spans, oldest first."""
    with _RECENT_LOCK:
        spans = list(_RECENT)
    if last is not None:
        spans = spans[-last:] if last > 0 else []
    return spans


def reset_trace() -> None:
    """Forget every recorded root span (test isolation hook)."""
    with _RECENT_LOCK:
        _RECENT.clear()


# -- exports ------------------------------------------------------------------


def span_tree(node: Span) -> dict:
    """The compact JSON tree of one span (the ``/v1/trace`` wire shape).

    ``peak_bytes`` appears only on spans that ran under memory
    profiling; profiled spans carry a ``profiled`` marker (the capture
    itself serves at ``/v1/profile``, keeping trace bodies lean).
    """
    tree = {
        "name": node.name,
        "duration_ms": round(node.duration_s * 1000.0, 3),
        "self_ms": round(node.self_s * 1000.0, 3),
        "labels": dict(sorted(node.labels.items())),
        "children": [span_tree(child) for child in node.children],
    }
    if node.peak_bytes is not None:
        tree["peak_bytes"] = node.peak_bytes
    if node.profile is not None:
        tree["profiled"] = True
    return tree


def chrome_trace(spans: list[Span] | None = None) -> dict:
    """Trace Event Format for chrome://tracing (phase-``X`` events).

    Timestamps are microseconds relative to the earliest recorded span
    -- absolute wall time never enters the trace, so two runs of the
    same build differ only in durations, never in epoch offsets.
    """
    spans = recent_spans() if spans is None else spans
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(node.started for node in spans)
    events: list[dict] = []

    def emit(node: Span, tid: int) -> None:
        events.append(
            {
                "name": node.name,
                "ph": "X",
                "ts": round((node.started - origin) * 1e6, 1),
                "dur": round(node.duration_s * 1e6, 1),
                "pid": 1,
                "tid": tid,
                "args": dict(sorted(node.labels.items())),
            }
        )
        for child in node.children:
            emit(child, tid)

    for index, node in enumerate(spans):
        emit(node, index + 1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _exported_at() -> str:
    """Wall-clock export stamp (the only wall read in the telemetry plane).

    Snapshot provenance for operators; never enters artifact bytes,
    digests, or cache keys.
    """
    from datetime import datetime, timezone

    # replint: allow[REP001] export-time provenance stamp only, never artifact data
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def telemetry_document(last: int | None = None) -> dict:
    """The full telemetry snapshot: metrics + recent span trees.

    What ``--telemetry-json PATH`` writes after a CLI run.
    """
    return {
        "exported_at": _exported_at(),
        "metrics": registry().snapshot(),
        "trace": {"spans": [span_tree(node) for node in recent_spans(last)]},
    }
