"""The scripted chaos drill: inject faults, assert nothing actually broke.

``python -m repro resilience drill --seed 7`` runs a deterministic
chaos scenario end to end and checks the properties this package
promises:

* **Pool crashes lose nothing.** Phase A builds the traffic study with
  ``parallel=2`` under a scheduled ``worker-crash`` fault; the crashed
  shards resubmit sequentially and the result must be **bit-identical**
  (per-residence record digests) to a fault-free sequential build.
* **The serve tier never 5xxes for warehouse-backed artifacts.**
  Phase B warms a store, then hammers :class:`~repro.serve.service.
  ArtifactService` while ``store-read`` / ``corrupt-blob`` /
  ``slow-build`` faults fire; every response must be < 500 (stale is
  fine -- it is *marked*), and at least one fault must actually have
  fired (a drill that injected nothing proves nothing).
* **No data corruption.** Injected corruption mutates reads, never
  disk: ``store.verify()`` must come back clean afterwards.
* **The schedule replays.** Rebuilding the fault plan from the same
  seed must yield the identical schedule (REP001: all of it derives
  from :mod:`repro.util.rng`).

Everything is pure library code -- the CLI wrapper in ``__main__``
just prints the report and exits 1 when ``problems`` is non-empty.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults

#: Phase A: crash 2 of the 5 traffic-residence shards mid-map.
PHASE_A_FAULTS = (FaultSpec("worker-crash", count=2, horizon=5),)

#: Phase B: chaos against a warmed store + serve loop.  Horizons are
#: sized to the operation counts the request loop actually generates
#: (8 artifact reads; builds only happen when corruption forces one).
PHASE_B_FAULTS = (
    FaultSpec("store-read", count=2, horizon=8),
    FaultSpec("corrupt-blob", count=2, horizon=8),
    FaultSpec("slow-build", count=1, horizon=2, delay_s=0.02),
)

#: The full scenario (the seed-reproducibility check runs over this).
DEFAULT_FAULTS = PHASE_A_FAULTS + PHASE_B_FAULTS


def _traffic_fingerprint(traffic: Any) -> dict[str, str]:
    """Per-residence content digests of one built traffic study.

    Hashes the packed per-residence frames column by column, so two
    studies fingerprint equal iff their generated records are
    bit-identical -- the equality Phase A asserts across a crashed and
    a fault-free build.
    """
    digests: dict[str, str] = {}
    for name, dataset in sorted(traffic.datasets.items()):
        frame = dataset.frame()
        hasher = hashlib.sha256()
        for column in sorted(vars(frame)):
            value = getattr(frame, column)
            data = getattr(value, "tobytes", None)
            hasher.update(column.encode("utf-8"))
            hasher.update(data() if data is not None else repr(value).encode())
        digests[name] = hasher.hexdigest()
    return digests


def _phase_pool_crash(seed: int, days: int, problems: list[str]) -> dict:
    """Phase A: a mid-map worker crash must not change a single bit."""
    from repro.datasets.scenarios import build_residence_study
    from repro.util.procpool import reset_pool_fallback_warnings, resubmitted_shards

    import warnings

    baseline = _traffic_fingerprint(
        build_residence_study(num_days=days, seed=seed, parallel=False)
    )
    plan = FaultPlan(PHASE_A_FAULTS, seed=seed)
    reset_pool_fallback_warnings()
    with inject_faults(plan), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        crashed = _traffic_fingerprint(
            build_residence_study(num_days=days, seed=seed, parallel=2)
        )
    fired = sum(plan.fired().values())
    if fired == 0:
        problems.append("phase A: no worker-crash fault fired (nothing proven)")
    if crashed != baseline:
        problems.append(
            "phase A: crashed-pool traffic differs from the fault-free build "
            f"({sorted(k for k in baseline if baseline[k] != crashed.get(k))})"
        )
    return {
        "schedule": {k: list(v) for k, v in plan.schedule().items()},
        "faults_fired": fired,
        "resubmitted_shards": [list(item) for item in resubmitted_shards()],
        "bit_identical": crashed == baseline,
    }


def _phase_serve_chaos(
    seed: int, config: Any, store: Any, problems: list[str]
) -> dict:
    """Phase B: chaos against the serve tier; zero 5xx, zero corruption."""
    import warnings

    from repro.serve.service import ArtifactService
    from repro.telemetry import counts

    degraded_before = counts("serve_degraded_total")
    service = ArtifactService(
        config=config, store=store, build_deadline_s=30.0, max_build_queue=4
    )
    # Warm first, *outside* the fault plan: the drill's property is
    # "zero 5xx for warehouse-backed artifacts", so the warehouse must
    # actually back them before the chaos starts.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in ("contrast", "table1"):
            service.handle("GET", f"/v1/artifact/{name}")
    plan = FaultPlan(PHASE_B_FAULTS, seed=seed)
    targets = [
        "/v1/artifact/contrast",
        "/v1/artifact/table1",
        "/v1/artifact/contrast",
        "/healthz",
        "/v1/artifact/table1",
        "/v1/artifact/contrast",
        "/v1/artifact/table1",
        "/v1/artifacts",
        "/v1/artifact/contrast",
        "/v1/artifact/table1",
    ]
    statuses: list[tuple[str, int]] = []
    stale_served = 0
    with inject_faults(plan), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for target in targets:
            # Every pass re-evicts the hot tier so the warehouse (where
            # the faults live) is actually on the request path.
            service.drop_hot()
            response = service.handle("GET", target)
            assert response is not None
            statuses.append((target, response.status))
            if response.status >= 500:
                problems.append(
                    f"phase B: {target} answered {response.status} under faults"
                )
            document = response.json()
            if isinstance(document, dict) and document.get("degraded"):
                stale_served += 1
    fired = plan.fired()
    if not fired:
        problems.append("phase B: no store/serve fault fired (nothing proven)")
    damage = store.verify()
    if damage:
        problems.append(f"phase B: store.verify() found damage: {damage[:3]}")
    return {
        "schedule": {k: list(v) for k, v in plan.schedule().items()},
        "requests": len(targets),
        "statuses": [list(item) for item in statuses],
        "faults_fired": dict(fired),
        "stale_served": stale_served,
        "store_verify_problems": len(damage),
        "service_counts": dict(
            sorted((counts("serve_degraded_total") - degraded_before).items())
        ),
    }


def run_drill(
    seed: int = 7,
    days: int = 4,
    sites: int = 110,
    store_root: str | None = None,
) -> dict:
    """Run the full chaos drill; the report's ``problems`` must be empty.

    Small scales by default (CI smoke); ``store_root`` picks where the
    scratch warehouse lives (a temp directory when ``None``).
    """
    import tempfile

    from repro.api.session import StudyConfig, clear_caches
    from repro.store.warehouse import ArtifactStore, reset_store, set_store

    problems: list[str] = []

    # Replayability first: same seed, same schedule -- the property
    # every other assertion rides on.
    schedule = FaultPlan(DEFAULT_FAULTS, seed=seed).schedule()
    if FaultPlan(DEFAULT_FAULTS, seed=seed).schedule() != schedule:
        problems.append("fault schedule is not reproducible from its seed")

    phase_a = _phase_pool_crash(seed, days, problems)

    scratch = None
    if store_root is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-drill-")
        store_root = scratch.name
    try:
        store = ArtifactStore(store_root)
        config = StudyConfig(days=days, sites=sites, parallel=False)
        clear_caches()
        set_store(store)
        try:
            phase_b = _phase_serve_chaos(seed, config, store, problems)
        finally:
            reset_store()
            clear_caches()
    finally:
        if scratch is not None:
            scratch.cleanup()

    return {
        "seed": seed,
        "scale": {"days": days, "sites": sites},
        "schedule": {kind: list(indices) for kind, indices in schedule.items()},
        "pool_crash": phase_a,
        "serve_chaos": phase_b,
        "problems": problems,
        "ok": not problems,
    }
