"""Deterministic fault injection: seeded plans, replayable schedules.

A :class:`FaultPlan` precomputes, from a seed and a set of
:class:`FaultSpec`\\ s, exactly *which operations fail*: each fault kind
counts its hook invocations (operation index 0, 1, 2, ...) and fires at
the indices a :class:`~repro.util.rng.RngStream` substream sampled at
plan-build time.  No ambient entropy anywhere (REP001) -- the same seed
always yields the same schedule, so a chaos run is an experiment you
can re-run, bisect, and assert on.

The hooks are compiled into the production tiers and cost one global
``None``-check when no plan is active:

* ``store/warehouse.py`` calls :func:`fault_hook` before payload reads
  (``store-read``) and staged writes (``store-write``), and filters
  read bytes through :func:`corrupt_hook` (``corrupt-blob`` -- the
  *read* is corrupted, the disk stays intact, which is how the drill
  distinguishes degradation from damage);
* ``util/procpool.py`` calls :func:`fault_hook` while collecting each
  shard (``worker-crash`` raises a :class:`InjectedWorkerCrash`, a
  ``BrokenProcessPool``, exercising per-shard resubmission);
* ``serve/service.py`` calls :func:`fault_hook` around the cold build
  (``slow-build`` sleeps ``delay_s``; ``build-error`` raises),
  exercising the deadline, breaker, and serve-stale paths.

Plans install via the :func:`inject_faults` context manager and record
every fired fault in :attr:`FaultPlan.events` for the drill report.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.util.rng import RngStream

#: Every fault kind a spec may name (and the hook sites that honour it).
FAULT_KINDS = (
    "store-read",  # OSError before a payload-file read
    "store-write",  # OSError before a staged payload write
    "corrupt-blob",  # read bytes mutated (checksum will fail); disk untouched
    "worker-crash",  # BrokenProcessPool while collecting one pool shard
    "slow-build",  # delay_s sleep inside the serve-tier cold build
    "build-error",  # exception inside the serve-tier cold build
)


class InjectedFaultError(OSError):
    """A scheduled, transient-shaped fault (retry policies treat it as IO)."""


class InjectedWorkerCrash(BrokenProcessPool):
    """A scheduled worker crash (procpool treats it as a real crash)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with its schedule parameters.

    ``count`` operation indices are sampled (without replacement) from
    ``[0, horizon)``; ``delay_s`` only matters for ``slow-build``.
    """

    kind: str
    count: int = 1
    horizon: int = 8
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.horizon < max(1, self.count):
            raise ValueError("horizon must be >= count (and >= 1)")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def spec(self) -> str:
        """The canonical text form (:func:`parse_fault` round-trips it)."""
        text = f"{self.kind}:{self.count}@{self.horizon}"
        if self.kind == "slow-build":
            text += f",delay={self.delay_s:g}"
        return text


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which kind, at which operation index, where."""

    kind: str
    index: int
    detail: str


def parse_fault(text: str) -> FaultSpec:
    """Parse ``kind[:count[@horizon]][,delay=S]`` into a :class:`FaultSpec`.

    >>> parse_fault("store-read:2@10").count
    2
    >>> parse_fault("slow-build:1@4,delay=0.2").delay_s
    0.2
    """
    head, _, tail = text.strip().partition(",")
    kind, _, counts = head.partition(":")
    kwargs: dict = {"kind": kind.strip()}
    if counts:
        count_text, _, horizon_text = counts.partition("@")
        try:
            kwargs["count"] = int(count_text)
            if horizon_text:
                kwargs["horizon"] = int(horizon_text)
        except ValueError:
            raise ValueError(
                f"bad fault spec {text!r}; expected kind[:count[@horizon]]"
                "[,delay=S]"
            ) from None
    if tail:
        key, sep, value = tail.partition("=")
        if not sep or key.strip() != "delay":
            raise ValueError(
                f"bad fault option {tail!r} in {text!r}; only delay=S is known"
            )
        try:
            kwargs["delay_s"] = float(value)
        except ValueError:
            raise ValueError(f"delay needs a number, got {value!r}") from None
    return FaultSpec(**kwargs)


class FaultPlan:
    """A seeded, replayable schedule over any number of fault specs."""

    def __init__(self, specs: Iterable[FaultSpec | str], seed: int) -> None:
        self.seed = seed
        self.specs = tuple(
            parse_fault(spec) if isinstance(spec, str) else spec for spec in specs
        )
        # Schedule derivation: one substream per spec position+kind, so
        # adding a spec never perturbs the schedules of the others.
        self._table: dict[str, dict[int, FaultSpec]] = {}
        for position, spec in enumerate(self.specs):
            rng = RngStream(seed, f"fault:{position}:{spec.kind}")
            table = self._table.setdefault(spec.kind, {})
            for index in rng.sample(range(spec.horizon), spec.count):
                table[index] = spec
        self._ops: Counter = Counter()
        self.events: list[FaultEvent] = []

    def schedule(self) -> dict[str, tuple[int, ...]]:
        """Kind -> the operation indices that will fire, sorted.

        Two plans built from the same specs and seed return equal
        schedules -- the acceptance property of the harness.
        """
        return {
            kind: tuple(sorted(table)) for kind, table in sorted(self._table.items())
        }

    def fired(self) -> dict[str, int]:
        """Kind -> how many scheduled faults actually fired so far."""
        counts: Counter = Counter(event.kind for event in self.events)
        return dict(sorted(counts.items()))

    def fire(self, kind: str, detail: str = "") -> FaultSpec | None:
        """Advance ``kind``'s operation counter; the spec if this op faults."""
        index = self._ops[kind]
        self._ops[kind] += 1
        spec = self._table.get(kind, {}).get(index)
        if spec is not None:
            self.events.append(FaultEvent(kind=kind, index=index, detail=detail))
        return spec


# -- the process-wide active plan ---------------------------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` (the production fast path)."""
    return _ACTIVE


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block (not reentrant)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active in this process")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def fault_hook(kind: str, detail: str = "") -> None:
    """The injection point: raise/sleep when ``kind`` is scheduled now.

    A no-op (one global check) without an active plan.  ``slow-build``
    sleeps its spec's ``delay_s``; ``worker-crash`` raises
    :class:`InjectedWorkerCrash`; everything else raises
    :class:`InjectedFaultError` (an ``OSError``, so the shared retry
    policy treats it exactly like a real transient IO failure).
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.fire(kind, detail)
    if spec is None:
        return
    if kind == "slow-build":
        time.sleep(spec.delay_s)
        return
    if kind == "worker-crash":
        raise InjectedWorkerCrash(f"injected worker crash ({detail or kind})")
    raise InjectedFaultError(f"injected {kind} fault ({detail or kind})")


def corrupt_hook(blob: bytes, detail: str = "") -> bytes:
    """Return ``blob``, corrupted when a ``corrupt-blob`` fault is due.

    The first byte is flipped -- enough to fail any checksum -- on a
    *copy*: injected corruption damages one read, never the stored
    bytes, so ``store verify`` stays clean and the drill can assert
    zero on-disk corruption while still exercising the warn+rebuild
    path.
    """
    plan = _ACTIVE
    if plan is None:
        return blob
    spec = plan.fire("corrupt-blob", detail)
    if spec is None or not blob:
        return blob
    mutated = bytearray(blob)
    mutated[0] ^= 0xFF
    return bytes(mutated)
