"""ArtifactService semantics: routing, ETags, gzip, errors, tiers."""

import gzip
import json

import pytest

from repro.api import StudyConfig, clear_caches
from repro.serve import ArtifactService, etag_matches
from repro.store import ArtifactStore, set_store
from repro.telemetry import counts

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)


@pytest.fixture(autouse=True)
def _no_ambient_store():
    set_store(None)
    yield
    set_store(None)


@pytest.fixture(scope="module")
def service():
    return ArtifactService(CONFIG, store=None)


class TestRouting:
    def test_healthz(self, service):
        response = service.handle("GET", "/healthz")
        assert response.status == 200
        document = response.json()
        assert document["status"] == "ok"
        assert document["artifacts"] >= 30
        assert document["config"]["days"] == CONFIG.days

    def test_listing_names_every_artifact(self, service):
        from repro.api import registry

        response = service.handle("GET", "/v1/artifacts")
        assert response.status == 200
        listed = response.json()
        assert [a["name"] for a in listed["artifacts"]] == registry.names()
        assert "/v1/artifact/<name>" in listed["endpoints"]

    def test_artifact_document_shape(self, service):
        response = service.handle("GET", "/v1/artifact/obs_availability")
        assert response.status == 200
        document = response.json()
        assert document["name"] == "obs_availability"
        assert document["rows"]
        assert document["config"]["sites"] == CONFIG.sites

    def test_unknown_path_404_lists_endpoints(self, service):
        response = service.handle("GET", "/v2/nope")
        assert response.status == 404
        assert "/healthz" in response.json()["endpoints"]

    def test_unknown_artifact_404_did_you_mean(self, service):
        response = service.handle("GET", "/v1/artifact/contrst")
        assert response.status == 404
        assert "contrast" in response.json()["did_you_mean"]

    def test_method_not_allowed(self, service):
        response = service.handle("POST", "/v1/artifact/table1")
        assert response.status == 405
        assert response.json()["allow"] == ["GET", "HEAD"]

    def test_head_carries_length_but_no_body(self, service):
        get = service.handle("GET", "/v1/artifact/obs_availability")
        head = service.handle("HEAD", "/v1/artifact/obs_availability")
        assert head.status == 200
        assert head.body == b""
        assert int(head.header("Content-Length")) == len(get.body)
        assert head.header("ETag") == get.header("ETag")


class TestQueryParameters:
    def test_unknown_parameter_400_did_you_mean(self, service):
        response = service.handle("GET", "/v1/artifact/table1?dayz=3")
        assert response.status == 400
        assert "days" in response.json()["did_you_mean"]

    def test_non_integer_parameter_400(self, service):
        response = service.handle("GET", "/v1/artifact/table1?days=soon")
        assert response.status == 400
        assert "integer" in response.json()["error"]

    def test_unknown_scale_400(self, service):
        response = service.handle("GET", "/v1/artifact/table1?scale=galactic")
        assert response.status == 400
        assert "cli" in response.json()["known"]

    def test_invalid_config_400(self, service):
        response = service.handle("GET", "/v1/artifact/table1?days=0")
        assert response.status == 400

    def test_override_changes_the_served_config(self, service):
        response = service.handle("GET", "/v1/artifact/fig5?sites=90")
        assert response.status == 200
        assert response.json()["config"]["sites"] == 90

    @pytest.mark.parametrize("seed", [6, 15, 37, 56])
    def test_longitudinal_of_a_dead_one_site_list_is_200(self, service, seed):
        """These seeds' only site is NXDOMAIN: no round connects a site."""
        response = service.handle(
            "GET", f"/v1/artifact/longitudinal?sites=1&seed={seed}&days=1"
        )
        assert response.status == 200
        document = response.json()
        assert [row["connection_success"] for row in document["rows"]] == [0, 0]
        assert document["metadata"]["adoption_change_pp"] == 0.0


class TestRevalidation:
    def test_etag_revalidation_304(self, service):
        first = service.handle("GET", "/v1/artifact/obs_availability")
        etag = first.header("ETag")
        assert etag and etag.startswith('"')
        revalidated = service.handle(
            "GET", "/v1/artifact/obs_availability", {"If-None-Match": etag}
        )
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.header("ETag") == etag

    def test_stale_etag_gets_full_response(self, service):
        response = service.handle(
            "GET", "/v1/artifact/obs_availability", {"If-None-Match": '"stale"'}
        )
        assert response.status == 200
        assert response.body

    def test_matcher_semantics(self):
        assert etag_matches('"abc"', '"abc"')
        assert etag_matches('W/"abc"', '"abc"')  # weak compares equal
        assert etag_matches('"x", "abc"', '"abc"')
        assert etag_matches("*", '"anything"')
        assert not etag_matches('"x"', '"abc"')
        assert not etag_matches(None, '"abc"')

    def test_errors_are_not_cacheable(self, service):
        response = service.handle("GET", "/v1/artifact/contrst")
        assert response.header("ETag") is None


class TestCompression:
    def test_gzip_when_accepted(self, service):
        plain = service.handle("GET", "/v1/artifact/obs_availability")
        zipped = service.handle(
            "GET", "/v1/artifact/obs_availability", {"Accept-Encoding": "gzip"}
        )
        assert zipped.header("Content-Encoding") == "gzip"
        assert len(zipped.body) < len(plain.body)
        assert gzip.decompress(zipped.body) == plain.body
        assert zipped.header("ETag") == plain.header("ETag")  # identity ETag

    def test_identity_when_not_accepted(self, service):
        response = service.handle("GET", "/v1/artifact/obs_availability")
        assert response.header("Content-Encoding") is None
        json.loads(response.body)


class TestContrastEndpoint:
    def test_country_row(self, service):
        response = service.handle("GET", "/v1/contrast/de")
        assert response.status == 200
        document = response.json()
        assert document["country"] == "DE"
        assert document["row"]["country"] == "DE"
        assert 0.0 <= document["row"]["available_share"] <= 1.0
        assert document["source"] == "/v1/artifact/contrast"

    def test_unknown_country_404_with_candidates(self, service):
        response = service.handle("GET", "/v1/contrast/XX")
        assert response.status == 404
        assert "DE" in response.json()["countries"]

    def test_unknown_country_starts_no_build(self):
        clear_caches()
        service = ArtifactService(CONFIG, store=None)
        before = counts("builds_total")
        assert service.handle("GET", "/v1/contrast/XX?sites=31").status == 404
        assert counts("builds_total") == before

    def test_fleet_countries_are_the_contrast_rows(self, service):
        rows = service.handle("GET", "/v1/artifact/contrast").json()["rows"]
        assert list(service.countries) == sorted(row["country"] for row in rows)


class TestDegradation:
    def test_unexpected_exception_becomes_500(self, service, monkeypatch):
        monkeypatch.setattr(
            type(service), "_listing",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        response = service.handle("GET", "/v1/artifacts")
        assert response.status == 500
        assert "RuntimeError" in response.json()["error"]
        assert response.header("ETag") is None  # errors are uncacheable

    def test_corrupt_artifact_entry_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "wh")
        service = ArtifactService(CONFIG, store=store)
        first = service.handle("GET", "/v1/artifact/fig6")
        assert first.status == 200
        # Corrupt the persisted document, then serve it cold again.
        [path] = list((tmp_path / "wh").glob("objects/*/artifact.json"))
        path.write_bytes(b"not json at all")
        fresh = ArtifactService(CONFIG, store=store)
        served = fresh.handle("GET", "/v1/artifact/fig6")
        assert served.status == 200
        assert served.json() == first.json()


class TestTiers:
    def test_contrast_is_hot_only_aware(self):
        service = ArtifactService(CONFIG, store=None)
        assert service.handle("GET", "/v1/contrast/DE", hot_only=True) is None
        assert service.handle("GET", "/v1/contrast/DE").status == 200
        hot = service.handle("GET", "/v1/contrast/DE", hot_only=True)
        assert hot is not None and hot.status == 200

    def test_hot_only_misses_then_hits(self):
        clear_caches()
        service = ArtifactService(CONFIG, store=None)
        assert service.handle("GET", "/v1/artifact/fig6", hot_only=True) is None
        full = service.handle("GET", "/v1/artifact/fig6")
        assert full.status == 200
        hot = service.handle("GET", "/v1/artifact/fig6", hot_only=True)
        assert hot is not None and hot.status == 200

    def test_layers_live_only_in_the_session_cache(self):
        """The service pins no layers of its own: once the session cache
        is cleared, a cold render builds what it needs again."""
        service = ArtifactService(CONFIG, store=None)
        assert service.handle("GET", "/v1/artifact/fig5").status == 200
        clear_caches()
        before = counts("builds_total")["census"]
        assert service.handle("GET", "/v1/artifact/fig6").status == 200
        assert counts("builds_total")["census"] - before == 1

    def test_hot_cache_eviction(self):
        service = ArtifactService(CONFIG, store=None, hot_limit=2)
        service.handle("GET", "/v1/artifacts")
        service.handle("GET", "/v1/artifact/fig6")
        service.handle("GET", "/v1/artifact/fig5")
        service.handle("GET", "/v1/artifact/table1")
        assert len(service._hot) == 2

    def test_store_backed_service_serves_without_computing(self, tmp_path):
        store = ArtifactStore(tmp_path / "wh")
        set_store(store)
        try:
            first = ArtifactService(CONFIG, store=store)
            rendered = first.handle("GET", "/v1/artifact/obs_availability")
            assert rendered.status == 200

            clear_caches()
            before = counts("builds_total")
            second = ArtifactService(CONFIG, store=store)
            served = second.handle("GET", "/v1/artifact/obs_availability")
            assert served.status == 200
            assert served.json() == rendered.json()
            assert served.header("ETag") == rendered.header("ETag")
            assert counts("builds_total") == before  # document came off disk
        finally:
            set_store(None)

    def test_warm_fills_the_hot_cache(self):
        service = ArtifactService(CONFIG, store=None)
        warmed = service.warm(["fig5", "fig6"])
        assert warmed == 2
        assert service.warmer.done
        assert service.handle(
            "GET", "/v1/artifact/fig5", hot_only=True
        ) is not None
