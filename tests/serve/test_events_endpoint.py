"""``/v1/events``: filters, validation, revalidation, wire schema."""

import json
import os
from pathlib import Path

import pytest

from repro.api import StudyConfig, clear_caches
from repro.sentinel.config import SEVERITIES, severity_rank
from repro.serve import ArtifactService
from repro.store import ArtifactStore, set_store

CONFIG = StudyConfig(days=6, sites=140, probe_targets=70, parallel=False)

GOLDEN = Path(__file__).parents[1] / "api" / "golden"


@pytest.fixture(autouse=True)
def _no_ambient_store():
    set_store(None)
    yield
    set_store(None)


@pytest.fixture(scope="module")
def service():
    clear_caches()
    return ArtifactService(CONFIG, store=None)


class TestEventsEndpoint:
    def test_document_shape(self, service):
        response = service.handle("GET", "/v1/events")
        assert response.status == 200
        document = response.json()
        assert list(document) == [
            "since", "country", "min_severity", "count", "config",
            "columns", "events", "metadata", "source",
        ]
        assert document["count"] == len(document["events"])
        assert document["source"] == "/v1/artifact/sentinel_events"
        assert document["metadata"]["points"] > 0
        for event in document["events"]:
            assert event["severity"] in SEVERITIES

    def test_since_filters_by_day(self, service):
        everything = service.handle("GET", "/v1/events?since=0").json()
        later = service.handle("GET", "/v1/events?since=4").json()
        assert all(event["day"] >= 4 for event in later["events"])
        assert later["count"] <= everything["count"]

    def test_country_and_severity_filters(self, service):
        scoped = service.handle("GET", "/v1/events?country=de").json()
        assert scoped["country"] == "DE"  # normalized
        assert all(event["scope"] == "DE" for event in scoped["events"])
        critical = service.handle(
            "GET", "/v1/events?min_severity=critical"
        ).json()
        assert all(
            severity_rank(event["severity"]) >= severity_rank("critical")
            for event in critical["events"]
        )

    def test_empty_feed_is_a_valid_200(self, service):
        # An unknown country is silence, not an error: valid data.
        document = service.handle("GET", "/v1/events?country=XX").json()
        assert document["count"] == 0
        assert document["events"] == []

    def test_etag_revalidation_304(self, service):
        first = service.handle("GET", "/v1/events?since=0")
        etag = first.header("ETag")
        assert etag
        again = service.handle(
            "GET", "/v1/events?since=0", headers={"if-none-match": etag}
        )
        assert again.status == 304
        assert again.body == b""

    def test_endpoint_is_listed_and_labeled(self, service):
        from repro.serve.service import ENDPOINTS, endpoint_label

        assert "/v1/events" in ENDPOINTS
        assert endpoint_label("/v1/events") == "/v1/events"
        assert endpoint_label("/v1/events/") == "/v1/events"


class TestEventsValidation:
    @pytest.mark.parametrize(
        "query",
        ["since=nope", "since=1.5", "since=-1", "min_severity=bogus",
         "country=", "sinse=3"],
    )
    def test_bad_parameters_are_400_json_not_500(self, service, query):
        response = service.handle("GET", f"/v1/events?{query}")
        assert response.status == 400
        assert "error" in response.json()

    def test_unknown_severity_lists_known(self, service):
        response = service.handle("GET", "/v1/events?min_severity=worse")
        assert response.json()["known"] == list(SEVERITIES)

    def test_scale_overrides_pass_through(self, service):
        response = service.handle("GET", "/v1/events?since=0&days=5")
        assert response.status == 200
        assert response.json()["config"]["days"] == 5


class TestEventsWireSchema:
    def test_wire_schema_matches_golden(self, service):
        """The envelope's key order and JSON types, pinned."""
        document = service.handle("GET", "/v1/events").json()

        def type_of(value):
            if value is None:
                return "null"
            if isinstance(value, bool):
                return "bool"
            if isinstance(value, int):
                return "int"
            if isinstance(value, float):
                return "float"
            if isinstance(value, str):
                return "str"
            if isinstance(value, list):
                return "array"
            if isinstance(value, dict):
                return "object"
            raise TypeError(f"not a JSON value: {value!r}")  # pragma: no cover

        event_fields: dict[str, set] = {}
        for event in document["events"]:
            for key, value in event.items():
                event_fields.setdefault(key, set()).add(type_of(value))
        schema = {
            "envelope": {key: type_of(value) for key, value in document.items()},
            "key_order": list(document),
            "event_fields": {
                key: sorted(types) for key, types in sorted(event_fields.items())
            },
            "metadata_keys": sorted(document["metadata"]),
        }
        golden_path = GOLDEN / "events.json"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.mkdir(exist_ok=True)
            golden_path.write_text(
                json.dumps(schema, indent=2, sort_keys=True) + "\n"
            )
        assert golden_path.is_file(), (
            "missing golden schema tests/api/golden/events.json; generate "
            "it with REPRO_UPDATE_GOLDEN=1"
        )
        assert schema == json.loads(golden_path.read_text()), (
            "the /v1/events wire format drifted from tests/api/golden/"
            "events.json; if intentional, regenerate with "
            "REPRO_UPDATE_GOLDEN=1 and commit the diff"
        )


class TestHealthzStoreGauges:
    def test_health_includes_refreshed_store_gauges(self, tmp_path):
        store = set_store(tmp_path / "warehouse")
        try:
            service = ArtifactService(CONFIG, store=store)
            telemetry = service.health()["telemetry"]
            gauges = telemetry["store_gauges"]
            assert gauges is not None
            assert gauges["entries"] >= 0
            assert gauges["bytes"] >= 0
        finally:
            set_store(None)

    def test_layer_bytes_come_from_the_index_alone(self, tmp_path, monkeypatch):
        """The per-layer store bytes equal the sums over the entries on
        disk, and a health poll reads the manifest and no ``meta.json``."""
        clear_caches()  # the layers must build, so they are written behind
        store = set_store(tmp_path / "warehouse")
        try:
            service = ArtifactService(CONFIG, store=store)
            assert service.handle("GET", "/v1/artifact/obs_availability").status == 200
            expected: dict[str, int] = {}
            for entry in store.entries():
                if entry.kind == "layer":
                    expected[entry.name] = expected.get(entry.name, 0) + entry.total_bytes
            assert expected

            read_text, read = Path.read_text, []

            def spy(path, *args, **kwargs):
                read.append(path.name)
                return read_text(path, *args, **kwargs)

            monkeypatch.setattr(Path, "read_text", spy)
            health = service.health()
        finally:
            set_store(None)
        assert read == ["manifest.json"]
        assert {
            layer: sides["store_bytes"]
            for layer, sides in health["memory"].items()
            if sides["store_bytes"] is not None
        } == expected
        assert health["telemetry"]["store_gauges"]["bytes"] == sum(
            entry.total_bytes for entry in store.entries()
        )

    def test_an_entry_without_bytes_counts_zero_everywhere(self, tmp_path):
        """The gauges, the health totals and the layer breakdown read one
        index the same way: an entry missing ``bytes`` counts 0 in each."""
        from repro.store.warehouse import STORE_SCHEMA
        from repro.telemetry import registry

        store = ArtifactStore(tmp_path / "warehouse")
        store.root.mkdir()
        store.manifest_path.write_text(json.dumps({"schema": STORE_SCHEMA, "entries": {
            "a1": {"kind": "layer", "name": "census", "bytes": 300},
            "a2": {"kind": "layer", "name": "census"},
            "a3": {"kind": "layer", "name": "traffic", "bytes": 40},
            "a4": {"kind": "artifact", "name": "table1", "bytes": 5},
        }}))
        health = ArtifactService(CONFIG, store=store).health()
        assert health["telemetry"]["store_gauges"] == {"entries": 4, "bytes": 345}
        assert registry().get("store_bytes").value() == 345
        assert store.refresh_gauges()[:2] == (4, 345)
        assert {
            layer: sides["store_bytes"]
            for layer, sides in health["memory"].items()
            if sides["store_bytes"] is not None
        } == {"census": 300, "traffic": 40}

    def test_health_without_store_reports_none(self, service):
        assert service.health()["telemetry"]["store_gauges"] is None
