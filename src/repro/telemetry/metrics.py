"""The process-wide metrics registry: typed, labeled, mergeable.

Three instrument kinds, the same trio Prometheus clients settle on:

* :class:`MetricCounter` -- monotonic; ``inc()`` only ever grows it.
* :class:`MetricGauge` -- a point-in-time level; ``set()`` replaces.
* :class:`MetricHistogram` -- fixed cumulative buckets plus sum/count,
  for latencies (``observe(seconds)``).

Every instrument is label-keyed: ``counter.inc(layer="traffic")``
stores under the label-value tuple, so one instrument covers a family
of series exactly like the exposition format renders them.  The serve
tier updates instruments from the event loop and from executor threads
at once, and the GIL does not make a read-modify-write of a dict slot
atomic, so each instrument holds a lock around its updates; a forked
child gets fresh locks (a parent thread may have held one at the
fork).  Readers (``/metrics``, snapshots) take no lock and tolerate a
torn read of *different* series.

The registry is serializable both directions: :meth:`MetricsRegistry.
snapshot` produces a deterministic JSON-able document and
:meth:`MetricsRegistry.merge` folds such a document back in (counters
and histograms add, gauges take the merged value), which is how
procpool workers ship their metrics back to the parent inside the map
result.  :func:`counts` reads one single-label counter of the process
registry as a detached ``collections.Counter``.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from typing import Any

#: Latency buckets (seconds) shared by the request/build/store
#: histograms: sub-millisecond hot-cache hits up through ten-second
#: cold builds, with +Inf implied as the overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Exposition-format numbers: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class Instrument:
    """One named instrument: shared identity, per-label-value samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._samples: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared "
                f"{sorted(self.labelnames)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def clear(self) -> None:
        """Drop every sample (the instrument stays registered)."""
        self._samples.clear()

    def sample_items(self) -> list[tuple[tuple[str, ...], Any]]:
        """``(label_values, value)`` pairs, deterministically ordered."""
        return sorted(self._samples.items())


class MetricCounter(Instrument):
    """A monotonic counter; decrements are a bug and raise."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._samples.get(self._key(labels), 0.0)


class MetricGauge(Instrument):
    """A settable level (cache sizes, store bytes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._samples[self._key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._samples.get(self._key(labels), 0.0)


class MetricHistogram(Instrument):
    """Fixed-bucket latency histogram (cumulative on render, not on store)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"{name}: buckets must be ascending and non-empty")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        index = len(self.buckets)  # +Inf unless a bound catches it
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                # One slot per bucket plus the +Inf overflow slot.
                sample = self._samples[key] = {
                    "buckets": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            sample["buckets"][index] += 1
            sample["sum"] += value
            sample["count"] += 1

    def value(self, **labels: Any) -> dict | None:
        """The raw sample dict for the label set (``None`` if unobserved)."""
        return self._samples.get(self._key(labels))


_KINDS: dict[str, type[Instrument]] = {
    "counter": MetricCounter,
    "gauge": MetricGauge,
    "histogram": MetricHistogram,
}


class MetricsRegistry:
    """All instruments of one process, keyed by metric name."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(
        self,
        cls: type[Instrument],
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        instrument = cls(name, help, tuple(labelnames), **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricCounter:
        return self._get_or_create(MetricCounter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricGauge:
        return self._get_or_create(MetricGauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricHistogram:
        return self._get_or_create(
            MetricHistogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    def reset(self) -> None:
        """Clear every sample; registrations (names, labels, buckets) stay."""
        for instrument in self._instruments.values():
            instrument.clear()

    # -- serialization -------------------------------------------------------

    def snapshot(self) -> dict:
        """A deterministic JSON-able document of every instrument.

        Sample values are copied (histogram dicts included), so a
        snapshot taken before more traffic is a stable before-image --
        the property the procpool shipping and the delta-asserting
        tests rely on.
        """
        out: dict[str, Any] = {}
        for instrument in self.instruments():
            entry: dict[str, Any] = {
                "type": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.labelnames),
                "samples": [
                    [list(key), dict(value) if isinstance(value, dict) else value]
                    for key, value in instrument.sample_items()
                ],
            }
            if isinstance(instrument, MetricHistogram):
                entry["buckets"] = list(instrument.buckets)
                for _, sample in entry["samples"]:
                    sample["buckets"] = list(sample["buckets"])
            out[instrument.name] = entry
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` document into this registry.

        Counters and histograms *add* (a worker's deltas accumulate on
        the parent's totals); gauges take the snapshot's value (last
        merge wins -- a level, not a flow).  Instruments the snapshot
        has and this registry lacks are created with the snapshot's
        declaration, so merging into a fresh registry reproduces the
        source exactly.
        """
        for name in sorted(snapshot):
            entry = snapshot[name]
            cls = _KINDS.get(entry.get("type"))
            if cls is None:
                raise ValueError(f"snapshot metric {name!r} has unknown type "
                                 f"{entry.get('type')!r}")
            labelnames = tuple(entry.get("labels", ()))
            kwargs: dict[str, Any] = {}
            if cls is MetricHistogram:
                kwargs["buckets"] = tuple(entry.get("buckets", DEFAULT_BUCKETS))
            instrument = self._get_or_create(
                cls, name, entry.get("help", ""), labelnames, **kwargs
            )
            if (
                isinstance(instrument, MetricHistogram)
                and list(instrument.buckets) != list(entry.get("buckets", ()))
            ):
                raise ValueError(f"metric {name!r}: bucket bounds differ")
            with instrument._lock:
                for key_list, value in entry.get("samples", []):
                    key = tuple(key_list)
                    if isinstance(instrument, MetricCounter):
                        instrument._samples[key] = (
                            instrument._samples.get(key, 0.0) + value
                        )
                    elif isinstance(instrument, MetricGauge):
                        instrument._samples[key] = float(value)
                    else:
                        sample = instrument._samples.get(key)
                        if sample is None:
                            instrument._samples[key] = {
                                "buckets": list(value["buckets"]),
                                "sum": value["sum"],
                                "count": value["count"],
                            }
                        else:
                            for i, n in enumerate(value["buckets"]):
                                sample["buckets"][i] += n
                            sample["sum"] += value["sum"]
                            sample["count"] += value["count"]

    # -- exposition ----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for instrument in self.instruments():
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, MetricHistogram):
                self._render_histogram(instrument, lines)
                continue
            for key, value in instrument.sample_items():
                lines.append(
                    f"{instrument.name}{self._labels(instrument.labelnames, key)}"
                    f" {_format_value(value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _labels(
        names: tuple[str, ...], values: tuple[str, ...], extra: str = ""
    ) -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(names, values)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def _render_histogram(
        self, instrument: MetricHistogram, lines: list[str]
    ) -> None:
        for key, sample in instrument.sample_items():
            cumulative = 0
            bounds = [*(_format_value(b) for b in instrument.buckets), "+Inf"]
            for bound, count in zip(bounds, sample["buckets"]):
                cumulative += count
                le = 'le="%s"' % bound
                label_text = self._labels(instrument.labelnames, key, le)
                lines.append(f"{instrument.name}_bucket{label_text} {cumulative}")
            label_text = self._labels(instrument.labelnames, key)
            lines.append(
                f"{instrument.name}_sum{label_text} {_format_value(sample['sum'])}"
            )
            lines.append(f"{instrument.name}_count{label_text} {sample['count']}")


#: The process-wide default registry every instrumented subsystem uses.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process; workers ship snapshots)."""
    return _DEFAULT


def counts(name: str) -> Counter:
    """``{label value: count}`` of the process registry's one-label
    counter ``name``, detached from the live instrument.

    A missing label value reads 0, so snapshots subtract and compare as
    ``Counter`` objects do; integral counts come back as ``int``.
    """
    counter = _DEFAULT.get(name)
    if not isinstance(counter, MetricCounter):
        raise KeyError(f"no counter named {name!r} is registered")
    if len(counter.labelnames) != 1:
        raise ValueError(f"{name}: counts() reads one-label counters only")
    return Counter(
        {
            key[0]: int(value) if float(value).is_integer() else value
            for key, value in counter.sample_items()
        }
    )


def _renew_locks() -> None:
    """Give a forked child fresh instrument locks: a parent thread may
    have held one at the fork, and it would never be released here."""
    for instrument in _DEFAULT.instruments():
        instrument._lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_locks)
