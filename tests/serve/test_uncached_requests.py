"""What an uncached request costs: views derive from their hot parent, and
a body is gzipped only for a client that asks for gzip."""

import gzip
import threading

import pytest

from repro.api import StudyConfig
from repro.serve import ArtifactService
from repro.store import ArtifactStore, set_store
from repro.telemetry import recent_spans, registry, reset_trace

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)


@pytest.fixture(autouse=True)
def _no_ambient_store():
    set_store(None)
    yield
    set_store(None)


def span_names(spans) -> set[str]:
    names: set[str] = set()
    for node in spans:
        names.add(node.name)
        names |= span_names(node.children)
    return names


def store_reads() -> int:
    sample = registry().get("store_op_seconds").value(op="read")
    return sample["count"] if sample is not None else 0


class TestViewsDeriveFromTheHotParent:
    def test_an_events_miss_answers_on_the_loop_and_renders_nothing(self):
        service = ArtifactService(CONFIG, store=None)
        service.warm(["sentinel_events"])
        reset_trace()
        for since in range(3):
            response = service.handle("GET", f"/v1/events?since={since}", hot_only=True)
            assert response is not None and response.status == 200
        assert "artifact:sentinel_events" not in span_names(recent_spans())

    def test_an_events_miss_reads_nothing_from_the_warehouse(self, tmp_path):
        service = ArtifactService(CONFIG, store=ArtifactStore(tmp_path / "wh"))
        service.warm(["sentinel_events"])
        before = store_reads()
        for since in range(5):
            response = service.handle("GET", f"/v1/events?since={since}", hot_only=True)
            assert response is not None and response.status == 200
        assert store_reads() == before

    def test_a_cold_parent_renders_once_then_views_derive_on_the_loop(self):
        service = ArtifactService(CONFIG, store=None)
        assert service.handle("GET", "/v1/events?since=1", hot_only=True) is None
        assert service.handle("GET", "/v1/events?since=1").status == 200  # off-loop
        derived = service.handle("GET", "/v1/events?since=2&min_severity=critical", hot_only=True)
        assert derived is not None and derived.status == 200
        parent = service.handle("GET", "/v1/artifact/sentinel_events", hot_only=True)
        assert parent is not None and parent.status == 200
        # Another artifact's views still need their own parent.
        assert service.handle("GET", "/v1/contrast/DE", hot_only=True) is None

    def test_each_request_counts_one_hot_cache_probe(self):
        hits = registry().get("serve_hot_cache_hits_total")
        misses = registry().get("serve_hot_cache_misses_total")
        service = ArtifactService(CONFIG, store=None)
        for target in (
            "/v1/events?since=0",  # cold parent: rendered, then the view
            "/v1/events?since=3",  # derived from the hot parent
            "/v1/events?since=3",
            "/v1/contrast/DE",
            "/v1/contrast/US",
            "/v1/artifact/sentinel_events",
            "/v1/artifact/contrast",
        ):
            before = hits.value() + misses.value()
            assert service.handle("GET", target).status == 200
            assert hits.value() + misses.value() - before == 1, target

    def test_an_off_loop_request_counts_one_hot_cache_probe(self):
        """The front end's ``hot_only`` probe, then its off-loop retry, is
        one request: one hit or one miss between them."""
        hits = registry().get("serve_hot_cache_hits_total")
        misses = registry().get("serve_hot_cache_misses_total")
        service = ArtifactService(CONFIG, store=None)
        for target in ("/v1/artifact/table1", "/v1/events?since=1", "/v1/contrast/DE"):
            before = hits.value() + misses.value()
            assert service.handle("GET", target, hot_only=True) is None
            assert service.handle("GET", target).status == 200
            assert hits.value() + misses.value() - before == 1, target


class TestGzipOnFirstUse:
    def test_identity_never_compresses_and_gzip_compresses_once(self, monkeypatch):
        compress = gzip.compress
        calls = []

        def spy(data, compresslevel=9, *, mtime=None):
            calls.append((data, compresslevel, mtime))
            return compress(data, compresslevel=compresslevel, mtime=mtime)

        monkeypatch.setattr(gzip, "compress", spy)
        service = ArtifactService(CONFIG, store=None)
        for target in (
            "/healthz", "/metrics", "/v1/artifacts", "/v1/artifact/contrast",
            "/v1/contrast/DE", "/v1/events?since=2", "/v1/artifact/tabel1",
        ):
            assert service.handle("GET", target).status in (200, 404)
        assert calls == []

        identity = service.handle("GET", "/v1/artifact/contrast")
        for _ in range(2):
            zipped = service.handle(
                "GET", "/v1/artifact/contrast", {"Accept-Encoding": "gzip"}
            )
            assert zipped.header("Content-Encoding") == "gzip"
            assert zipped.body == compress(identity.body, compresslevel=6, mtime=0)
        assert calls == [(identity.body, 6, 0)]  # made once, on first use

    def test_small_bodies_stay_identity_for_gzip_clients(self):
        service = ArtifactService(CONFIG, store=None)
        response = service.handle(
            "GET", "/v1/artifact/fig99", {"Accept-Encoding": "gzip"}
        )
        assert response.status == 404
        assert len(response.body) < 256
        assert response.header("Content-Encoding") is None

    def test_one_bodys_first_compress_never_waits_on_anothers(self, monkeypatch):
        """A first compress holds no lock shared with other bodies: while one
        thread compresses one artifact, another's gzip request answers."""
        service = ArtifactService(CONFIG, store=None)
        service.warm(["contrast", "obs_availability"])
        slow_body = service.handle("GET", "/v1/artifact/contrast").body
        compress, entered, release = gzip.compress, threading.Event(), threading.Event()

        def stalling(data, compresslevel=9, *, mtime=None):
            if data == slow_body:
                entered.set()
                release.wait(10)
            return compress(data, compresslevel=compresslevel, mtime=mtime)

        monkeypatch.setattr(gzip, "compress", stalling)
        answers = {}

        def fetch(name):
            answers[name] = service.handle(
                "GET", f"/v1/artifact/{name}", {"Accept-Encoding": "gzip"}
            )

        slow = threading.Thread(target=fetch, args=("contrast",))
        slow.start()
        try:
            assert entered.wait(10)
            other = threading.Thread(target=fetch, args=("obs_availability",))
            other.start()
            other.join(5)
            assert not other.is_alive()
            assert "contrast" not in answers
        finally:
            release.set()
            slow.join(10)
        for name, response in answers.items():
            assert response.header("Content-Encoding") == "gzip", name
            assert response.json() == service.handle("GET", f"/v1/artifact/{name}").json()
