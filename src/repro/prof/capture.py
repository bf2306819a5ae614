"""Span-scoped CPU profiling: cProfile captures attached to trace spans.

:func:`enable_profiling` installs a hook into the span tracer
(:func:`repro.telemetry.trace.set_profile_hook`); while enabled, every
span whose name matches one of the configured patterns runs under its
own ``cProfile.Profile`` and leaves the deterministic call-tree
document (:func:`repro.prof.tree.build_call_tree`) on
``Span.profile``.  Disabled -- the default -- the tracer pays one
``None`` check per span, which is what keeps the "profiling off adds
<2% overhead" contract honest.

Capture discipline:

* Patterns are exact span names or trailing-``*`` prefixes
  (``build:*`` matches ``build:traffic``).  The default set covers the
  cold paths worth attributing: layer builds, whatif sweeps, and the
  serving tier's request resolution.
* One CPU capture per thread at a time: ``sys.setprofile`` (what
  cProfile rides on) is per-thread state, and a nested matching span
  is already inside the outer capture -- its frames show up in the
  outer tree, so nesting a second profiler would only double-count.
* Memory capture (``memory_spans``) nests: tracemalloc peaks are
  tracked through :mod:`repro.prof.memory`, which propagates an inner
  span's peak into its ancestors.

This module (with :mod:`repro.prof.memory`) is the **only** place
``cProfile``/``pstats``/``tracemalloc`` may be imported -- replint
REP012 flags the profiler anywhere else, the same confinement REP001
gives wall clocks.
"""

from __future__ import annotations

import cProfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.prof import memory as _memory
from repro.prof.tree import build_call_tree
from repro.telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.trace import Span

#: The spans worth profiling by default: layer builds, whatif sweeps,
#: and the serving tier's cold request path.
DEFAULT_SPANS: tuple[str, ...] = ("build:*", "sweep:*", "serve:request")

#: Build spans get tracemalloc peaks by default when memory capture is
#: on -- the per-layer heap numbers /healthz breaks down.
DEFAULT_MEMORY_SPANS: tuple[str, ...] = ("build:*",)


@dataclass(frozen=True)
class ProfileConfig:
    """What the installed hook captures.

    Attributes:
        spans: span-name patterns that get a cProfile capture.
        memory_spans: span-name patterns that get a tracemalloc peak
            (empty disables memory capture entirely).
    """

    spans: tuple[str, ...] = DEFAULT_SPANS
    memory_spans: tuple[str, ...] = ()


def match_span(name: str, patterns: Sequence[str]) -> bool:
    """Exact match, or trailing-``*`` prefix match (``build:*``)."""
    for pattern in patterns:
        if pattern.endswith("*"):
            if name.startswith(pattern[:-1]):
                return True
        elif name == pattern:
            return True
    return False


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.active: "Span | None" = None  # span holding this thread's profiler


_THREAD = _ThreadState()


class _SpanProfileHook:
    """The object the tracer calls at span enter/exit while enabled."""

    def __init__(self, config: ProfileConfig) -> None:
        self.config = config

    def start(self, node: "Span") -> dict | None:
        token: dict = {}
        if match_span(node.name, self.config.spans) and _THREAD.active is None:
            _THREAD.active = node
            profiler = cProfile.Profile()
            token["profiler"] = profiler
            profiler.enable()
        if self.config.memory_spans and match_span(
            node.name, self.config.memory_spans
        ):
            token["memory"] = _memory.span_memory_start()
        return token or None

    def stop(self, node: "Span", token: dict) -> None:
        profiler = token.get("profiler")
        if profiler is not None:
            profiler.disable()
            _THREAD.active = None
            node.profile = build_call_tree(
                profiler.getstats(), duration_s=node.duration_s
            )
        mem_token = token.get("memory")
        if mem_token is not None:
            peak = _memory.span_memory_stop(mem_token)
            node.peak_bytes = peak
            layer = node.labels.get("layer")
            if node.name.startswith("build:") and layer:
                _memory.record_build_peak(layer, peak)


_INSTALLED: _SpanProfileHook | None = None
_INSTALL_LOCK = threading.Lock()


def enable_profiling(
    spans: Sequence[str] | None = None,
    memory: bool = False,
    memory_spans: Sequence[str] | None = None,
) -> ProfileConfig:
    """Install the span profiling hook process-wide.

    Args:
        spans: CPU-capture patterns (default :data:`DEFAULT_SPANS`).
        memory: also capture tracemalloc peaks (on
            ``memory_spans``, default :data:`DEFAULT_MEMORY_SPANS`).
        memory_spans: explicit memory-capture patterns (implies
            ``memory=True``).
    """
    global _INSTALLED
    mem_patterns: tuple[str, ...] = ()
    if memory_spans is not None:
        mem_patterns = tuple(memory_spans)
    elif memory:
        mem_patterns = DEFAULT_MEMORY_SPANS
    config = ProfileConfig(
        spans=tuple(spans) if spans is not None else DEFAULT_SPANS,
        memory_spans=mem_patterns,
    )
    with _INSTALL_LOCK:
        if mem_patterns:
            _memory.start_tracing()
        _INSTALLED = _SpanProfileHook(config)
        _trace.set_profile_hook(_INSTALLED)
    return config


def disable_profiling() -> None:
    """Remove the hook; spans go back to plain timing."""
    global _INSTALLED
    with _INSTALL_LOCK:
        hook = _INSTALLED
        _INSTALLED = None
        _trace.set_profile_hook(None)
        if hook is not None and hook.config.memory_spans:
            _memory.stop_tracing()


def profiling_enabled() -> ProfileConfig | None:
    """The active capture config, or ``None`` when profiling is off."""
    hook = _INSTALLED
    return hook.config if hook is not None else None


@contextmanager
def profiling(
    spans: Sequence[str] | None = None,
    memory: bool = False,
    memory_spans: Sequence[str] | None = None,
) -> Iterator[ProfileConfig]:
    """Scoped :func:`enable_profiling` (the CLI / benchmark form)."""
    config = enable_profiling(spans, memory=memory, memory_spans=memory_spans)
    try:
        yield config
    finally:
        disable_profiling()


def profiled_spans(
    roots: Sequence["Span"], pattern: str | None = None
) -> list["Span"]:
    """Every span under ``roots`` carrying a capture, depth-first.

    ``pattern`` filters by span name (exact or trailing-``*``), the
    same matching the capture patterns use.
    """
    found: list["Span"] = []

    def walk(node: "Span") -> None:
        if node.profile is not None and (
            pattern is None or match_span(node.name, (pattern,))
        ):
            found.append(node)
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return found


def profile_entries(captured: Sequence["Span"]) -> list[dict]:
    """The ``profiles`` entries of a tree-format export, one per captured
    span (``repro prof`` and ``GET /v1/profile``)."""
    return [
        {
            "span": node.name,
            "labels": dict(sorted(node.labels.items())),
            "duration_ms": round(node.duration_s * 1000.0, 3),
            "peak_bytes": node.peak_bytes,
            "profile": node.profile,
        }
        for node in captured
    ]
