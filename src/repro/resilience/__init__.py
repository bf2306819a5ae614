"""repro.resilience: deterministic faults, shared retries, graceful drills.

The robustness tier of the reproduction, in three parts:

* :mod:`repro.resilience.retry` -- the **one** retry/backoff policy in
  the repo (REP009 forbids ad-hoc sleep loops everywhere else):
  bounded exponential backoff with deterministic jitter and a per-call
  timeout budget, applied to warehouse IO and the session's
  read-through loads.
* :mod:`repro.resilience.faults` -- a seeded, replayable
  fault-injection harness: a :class:`FaultPlan` derives its schedule
  from :mod:`repro.util.rng` substreams (no ambient entropy) and hooks
  in ``store/warehouse.py``, ``util/procpool.py``, and
  ``serve/service.py`` fire the scheduled faults -- store IO errors,
  corrupt blobs, worker crashes, slow builds -- at exact operation
  indices, identically on every run with the same seed.
* :mod:`repro.resilience.breaker` + :mod:`repro.resilience.drill` --
  the serving tier's circuit breaker and the scripted chaos drill
  (``python -m repro resilience drill --seed 7``) that proves the
  stack degrades instead of failing: zero 5xx for warehouse-backed
  artifacts, zero corruption, bit-identical results.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.drill import run_drill
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    InjectedWorkerCrash,
    active_plan,
    corrupt_hook,
    fault_hook,
    inject_faults,
    parse_fault,
)
from repro.resilience.retry import (
    DEFAULT_POLICY,
    STORE_POLICY,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "CircuitBreaker",
    "run_drill",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "InjectedWorkerCrash",
    "active_plan",
    "corrupt_hook",
    "fault_hook",
    "inject_faults",
    "parse_fault",
    "DEFAULT_POLICY",
    "STORE_POLICY",
    "RetryPolicy",
    "call_with_retry",
]
