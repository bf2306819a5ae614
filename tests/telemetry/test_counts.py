"""Counts as the program reads them: ``counts()`` and ``/healthz``.

:func:`repro.telemetry.counts` is the one read helper for a one-label
counter.  ``/healthz`` reads its count keys through it: one service is
driven through every degraded mode -- a slow build, a stale serve, an
open breaker and a shed -- and one retried call, then ``/healthz`` must
still carry each count key with ``int`` values.
"""

from collections import Counter

import pytest

from repro.api import StudyConfig
from repro.resilience import FaultPlan, FaultSpec, inject_faults
from repro.resilience.retry import call_with_retry
from repro.serve import ArtifactService
from repro.store import set_store
from repro.telemetry import counts

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)
DEADLINE_S = 1.0
SLOW = (FaultSpec("slow-build", count=1, horizon=1, delay_s=DEADLINE_S + 0.05),)
ALWAYS_FAIL = (FaultSpec("build-error", count=64, horizon=64),)


@pytest.fixture(autouse=True)
def _no_store():
    set_store(None)
    yield
    set_store(None)


def _flaky():
    """Fails once with a transient error, then succeeds."""
    calls = []

    def fn():
        calls.append(1)
        if len(calls) == 1:
            raise OSError("transient")
        return "ok"

    return fn


class TestCounts:
    def test_missing_key_reads_zero(self):
        snapshot = counts("retries_total")
        assert snapshot["never:counted"] == 0
        assert "never:counted" not in snapshot  # reading stores nothing

    def test_snapshot_is_detached_from_the_instrument(self):
        before = counts("retries_total")
        frozen = dict(before)
        call_with_retry(_flaky(), label="detach", sleep=lambda _s: None)
        assert before == frozen
        after = counts("retries_total")
        assert after - before == Counter(
            {"error:detach": 1, "retry:detach": 1, "recovered:detach": 1}
        )
        assert all(type(value) is int for value in after.values())

    def test_reads_only_registered_one_label_counters(self):
        with pytest.raises(KeyError):
            counts("no_such_total")
        with pytest.raises(ValueError):
            counts("store_write_behind_failures_total")  # no label


def test_healthz_keeps_every_count_key_as_int():
    service = ArtifactService(CONFIG, store=None, build_deadline_s=DEADLINE_S)
    stale_path, shed_path = "/v1/artifact/obs_availability", "/v1/artifact/obs_sites"
    # A slow build still serves fresh, and leaves a last-known-good.
    with inject_faults(FaultPlan(SLOW, seed=7)):
        assert service.handle("GET", stale_path).status == 200
    with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
        # Two failed builds serve stale; with the slow build, three
        # consecutive failures open the breaker.
        for _ in range(2):
            service.drop_hot()
            assert service.handle("GET", stale_path).json()["degraded"]["stale"]
        # Nothing good exists for this one: three 500s, then it sheds.
        for _ in range(3):
            assert service.handle("GET", shed_path).status == 500
    service.drop_hot()
    assert service.handle("GET", stale_path).json()["degraded"]["reason"] == (
        "circuit breaker open"
    )
    assert service.handle("GET", shed_path).status == 503
    assert call_with_retry(_flaky(), label="pin", sleep=lambda _s: None) == "ok"

    document = service.handle("GET", "/healthz").json()
    assert type(document["requests"]) is int and document["requests"] >= 8
    modes = {"stale", "shed", "breaker_open", "slow_build"}
    counts = document["resilience"]["counts"]
    assert modes <= set(counts)
    retry_counts = document["resilience"]["retry_counts"]
    assert retry_counts["recovered:pin"] >= 1
    degraded = document["telemetry"]["degraded_total"]
    assert {"stale", "shed"} <= set(degraded)
    for section in (counts, retry_counts, degraded):
        assert section and all(type(value) is int for value in section.values())
