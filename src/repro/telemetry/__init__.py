"""repro.telemetry: the observability plane -- metrics and spans.

One process-wide :class:`MetricsRegistry` of typed, label-keyed
instruments (:mod:`repro.telemetry.metrics`) and a monotonic-clock
span tracer (:mod:`repro.telemetry.trace`).  Every counter in the repo
is a registry instrument; :func:`counts` reads a one-label counter as a
``collections.Counter`` snapshot (``/healthz`` and the tests read counts
through it).

Export surfaces: ``GET /metrics`` (Prometheus text exposition) and
``GET /v1/trace?last=N`` on the serve tier, ``--telemetry-json PATH``
on the CLI, and ``python -m repro trace`` for chrome://tracing.
"""

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Instrument,
    MetricCounter,
    MetricGauge,
    MetricHistogram,
    MetricsRegistry,
    counts,
    registry,
)
from repro.telemetry.trace import (
    Span,
    chrome_trace,
    current_span,
    recent_spans,
    reset_trace,
    set_profile_hook,
    span,
    span_tree,
    telemetry_document,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Instrument",
    "MetricCounter",
    "MetricGauge",
    "MetricHistogram",
    "MetricsRegistry",
    "counts",
    "registry",
    "Span",
    "chrome_trace",
    "current_span",
    "recent_spans",
    "reset_trace",
    "set_profile_hook",
    "span",
    "span_tree",
    "telemetry_document",
]
