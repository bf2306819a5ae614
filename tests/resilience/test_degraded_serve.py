"""Graceful degradation in the serving tier, driven by injected faults.

Serve-stale semantics (last-known-good + ``Warning`` header + payload
marker), circuit-breaker shedding (503 + ``Retry-After``), build-queue
saturation, the slow-build deadline, and the ``/healthz`` degraded
report -- each forced deterministically with ``build-error`` fault
plans instead of timing games.
"""

import pytest

from repro.api import StudyConfig
from repro.resilience import FaultPlan, FaultSpec, inject_faults
from repro.serve import ArtifactService
from repro.store import set_store
from repro.telemetry import counts, registry

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)
ART = "obs_availability"
PATH = f"/v1/artifact/{ART}"

#: count == horizon: every build inside the plan fails, deterministically.
ALWAYS_FAIL = (FaultSpec("build-error", count=64, horizon=64),)


@pytest.fixture(autouse=True)
def _isolated():
    set_store(None)
    yield
    set_store(None)


@pytest.fixture()
def degraded():
    """``degraded()``: the ``serve_degraded_total`` counts added since the
    test began."""
    before = counts("serve_degraded_total")
    return lambda: counts("serve_degraded_total") - before


def warmed_service(**kwargs) -> ArtifactService:
    """A service that has served ``ART`` once (so last-known-good exists)."""
    service = ArtifactService(CONFIG, store=None, **kwargs)
    assert service.handle("GET", PATH).status == 200
    service.drop_hot()
    return service


class TestServeStale:
    def test_stale_carries_warning_header_and_payload_marker(self, degraded):
        service = warmed_service()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            response = service.handle("GET", PATH)
        assert response.status == 200
        assert response.header("Warning") == '110 repro-serve "response is stale"'
        document = response.json()
        assert document["degraded"]["stale"] is True
        assert "build failed" in document["degraded"]["reason"]
        assert document["rows"]  # the body is the real last-known-good table
        assert degraded()["stale"] == 1

    def test_stale_responses_are_not_cacheable(self, degraded):
        service = warmed_service()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            response = service.handle("GET", PATH)
            assert response.header("ETag") is None
            assert response.header("Cache-Control") is None
            # ... and never enter the hot tier: the next request degrades
            # again instead of replaying a cached degraded body.
            assert service.handle("GET", PATH, hot_only=True) is None
            assert service.handle("GET", PATH).status == 200
        assert degraded()["stale"] == 2

    def test_recovery_serves_fresh_once_the_faults_clear(self):
        service = warmed_service()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            assert service.handle("GET", PATH).json()["degraded"]["stale"]
        # One failure: below the breaker threshold, so the next build runs.
        response = service.handle("GET", PATH)
        assert response.status == 200
        assert "degraded" not in response.json()
        assert response.header("ETag") is not None  # cacheable again

    def test_contrast_derived_from_a_stale_table_stays_marked(self):
        service = ArtifactService(CONFIG, store=None)
        assert service.handle("GET", "/v1/contrast/DE").status == 200
        service.drop_hot()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            response = service.handle("GET", "/v1/contrast/DE")
        assert response.status == 200
        assert response.header("Warning") is not None
        document = response.json()
        assert document["country"] == "DE"
        assert document["degraded"]["stale"] is True
        assert service.handle("GET", "/v1/contrast/DE", hot_only=True) is None


class TestBreakerAndShedding:
    def test_breaker_trips_then_sheds_503_when_no_stale_exists(self, degraded):
        service = ArtifactService(CONFIG, store=None)  # cold: nothing good yet
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            for _ in range(3):  # three consecutive build failures trip it
                assert service.handle("GET", PATH).status == 500
        response = service.handle("GET", PATH)  # no plan needed: breaker open
        assert response.status == 503
        assert response.header("Retry-After") == "5"
        document = response.json()
        assert "temporarily unavailable" in document["error"]
        assert document["retry_after_s"] == 5.0
        assert degraded()["breaker_open"] == 1
        assert degraded()["shed"] == 1

    def test_open_breaker_serves_stale_when_it_can(self, degraded):
        service = warmed_service()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            for _ in range(3):
                assert service.handle("GET", PATH).status == 200  # stale
        response = service.handle("GET", PATH)
        assert response.status == 200
        assert response.json()["degraded"]["reason"] == "circuit breaker open"
        assert degraded()["breaker_open"] == 1
        assert degraded()["shed"] == 0  # never had to shed

    def test_saturated_build_queue_sheds_immediately(self, degraded):
        service = ArtifactService(CONFIG, store=None, max_build_queue=0)
        response = service.handle("GET", PATH)
        assert response.status == 503
        assert response.header("Retry-After") == "1"
        assert "build queue saturated" in response.json()["error"]
        assert degraded()["shed"] == 1

    def test_slow_build_serves_fresh_but_counts_against_the_breaker(self, degraded):
        # A nanosecond deadline: every finished build is "slow".  The
        # work is done, so it serves fresh -- degradation only shows in
        # the telemetry and the breaker's failure count.
        service = ArtifactService(CONFIG, store=None, build_deadline_s=1e-9)
        response = service.handle("GET", PATH)
        assert response.status == 200
        assert "degraded" not in response.json()
        assert degraded()["slow_build"] == 1
        snapshot = service.health()["resilience"]["breakers"][ART]
        assert snapshot["consecutive_failures"] == 1
        assert snapshot["state"] == "closed"


class TestHealthz:
    def test_ok_with_all_breakers_closed(self):
        service = ArtifactService(CONFIG, store=None)
        document = service.health()
        assert document["status"] == "ok"
        resilience = document["resilience"]
        assert resilience["breakers"] == {}
        assert resilience["pool"].keys() == {
            "fallback_contexts", "resubmitted_shards"
        }

    def test_degraded_while_a_breaker_is_open_with_detail(self, degraded):
        service = warmed_service()
        with inject_faults(FaultPlan(ALWAYS_FAIL, seed=7)):
            for _ in range(3):
                service.handle("GET", PATH)
        document = service.health()
        assert document["status"] == "degraded"
        resilience = document["resilience"]
        assert resilience["breakers"][ART]["state"] == "open"
        assert resilience["counts"] == counts("serve_degraded_total")
        assert degraded()["stale"] == 3
        assert resilience["build_deadline_s"] is None
        assert resilience["max_build_queue"] == 8

    def test_healthz_mirrors_the_retry_counters(self):
        before = counts("retries_total")["recovered:store:traffic"]
        registry().get("retries_total").inc(event="recovered:store:traffic")
        service = ArtifactService(CONFIG, store=None)
        retry_counts = service.health()["resilience"]["retry_counts"]
        assert retry_counts["recovered:store:traffic"] == before + 1
