"""The shared retry/backoff policy: bounded, budgeted, deterministic.

Every transient-failure loop in the repo goes through
:func:`call_with_retry` -- REP009 flags ``time.sleep`` loops and
ad-hoc ``for attempt in range(...)`` retries anywhere outside
``repro/resilience/``, so backoff behaviour (attempt counts, delay
growth, jitter, timeout budgets) is defined exactly once and observable
in one counter (``retries_total``).

Jitter is **deterministic**: the perturbation of attempt *n* for label
*l* is derived from ``util.rng``'s SHA-256 seed derivation over
``(n, l)``, never from ambient entropy (REP001) -- two runs of the same
failing call back off on the identical schedule, which is what makes
the chaos drill (:mod:`repro.resilience.drill`) replayable.  Delays
only shrink under jitter, so ``max_delay_s`` is a hard ceiling and the
worst-case stall of a call is computable from its policy alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Tuple, Type

from repro.telemetry import registry as _metrics_registry
from repro.util.rng import derive_seed

#: Retry telemetry, labelled ``<event>:<label>`` -- ``error`` every
#: failed attempt, ``retry`` every scheduled re-attempt, ``recovered``
#: when a retry eventually succeeded, ``gaveup`` when attempts or the
#: timeout budget ran out, ``deadline`` when the budget (not the attempt
#: count) stopped the loop.  ``/healthz`` mirrors it into its resilience
#: section; ``GET /metrics`` renders it.
_RETRIES = _metrics_registry().counter(
    "retries_total", "retry-loop events, per event:label", ("event",)
)

_SEED_SPAN = float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """One bounded-backoff policy: attempts, delays, jitter, budget.

    ``delay(attempt)`` grows ``base_delay_s * multiplier**(attempt-1)``
    capped at ``max_delay_s``, then shrinks by up to ``jitter`` of
    itself (deterministically, per attempt+label).  ``timeout_s`` is a
    wall-budget for the whole call including sleeps; ``None`` means the
    attempt count is the only bound.
    """

    attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5
    timeout_s: float | None = 5.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def delay(self, attempt: int, label: str = "") -> float:
        """The deterministic backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        raw = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1)
        )
        if not self.jitter:
            return raw
        unit = derive_seed(attempt, f"retry:{label}") / _SEED_SPAN  # [0, 1)
        return raw * (1.0 - self.jitter * unit)

    def delays(self, label: str = "") -> tuple[float, ...]:
        """Every backoff this policy would sleep, in order (replayable)."""
        return tuple(
            self.delay(attempt, label) for attempt in range(1, self.attempts)
        )


#: The general-purpose default.
DEFAULT_POLICY = RetryPolicy()

#: Warehouse IO: short delays (local disk hiccups resolve fast or never),
#: a tight budget so a dead disk degrades to a rebuild quickly.
STORE_POLICY = RetryPolicy(
    attempts=3, base_delay_s=0.01, max_delay_s=0.1, timeout_s=1.0
)


def call_with_retry(
    fn: Callable[[], Any],
    *,
    label: str,
    policy: RetryPolicy = DEFAULT_POLICY,
    retryable: Tuple[Type[BaseException], ...] = (OSError,),
    on_retry: Callable[[int, BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Run ``fn`` under ``policy``; re-raise the last error on exhaustion.

    Only ``retryable`` exceptions are retried -- anything else (a
    checksum mismatch, a bug) propagates immediately.  ``on_retry`` is
    called before each backoff sleep with ``(attempt, exception)``;
    ``sleep``/``clock`` are injectable for tests (the monotonic clock
    only bounds the budget -- it never enters results, cache keys, or
    artifact bytes).
    """
    deadline = None if policy.timeout_s is None else clock() + policy.timeout_s
    last: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        try:
            value = fn()
        except retryable as exc:
            last = exc
            _RETRIES.inc(event=f"error:{label}")
            if attempt == policy.attempts:
                break
            delay = policy.delay(attempt, label)
            if deadline is not None and clock() + delay > deadline:
                _RETRIES.inc(event=f"deadline:{label}")
                break
            _RETRIES.inc(event=f"retry:{label}")
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(delay)
        else:
            if attempt > 1:
                _RETRIES.inc(event=f"recovered:{label}")
            return value
    _RETRIES.inc(event=f"gaveup:{label}")
    assert last is not None  # the loop only exits via the except arm
    raise last
