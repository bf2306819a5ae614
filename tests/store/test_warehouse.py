"""The warehouse itself: addressing, codec, integrity, maintenance."""

import json

import numpy as np
import pytest

from repro.store import (
    ArtifactStore,
    StoreIntegrityError,
    digest_key,
    dump_value,
    load_value,
)
from repro.store.serialize import ARRAYS_FILE, PAYLOAD_FILE
from repro.store.warehouse import STORE_SCHEMA


def make_carrier() -> dict:
    """A layer-shaped value: arrays, a shared array, plain fields.  Plain
    containers, because the codec refuses classes from outside ``repro``."""
    structured = np.zeros(
        5, dtype=np.dtype([("day", np.int32), ("bytes", np.int64)])
    )
    structured["day"] = np.arange(5)
    structured["bytes"] = np.arange(5) * 1000
    lookup = np.array([1.5, -2.5, 3.25])
    return {
        "data": structured,
        "lookup": lookup,
        "alias": lookup,  # same object as ``lookup``
        "label": "residence-A",
        "numbers": (1, 2, 3),
    }


class TestCodec:
    def test_round_trip_preserves_values_and_sharing(self):
        files = dump_value(make_carrier())
        assert set(files) == {PAYLOAD_FILE, ARRAYS_FILE}
        loaded = load_value(files)
        assert loaded["label"] == "residence-A"
        assert loaded["numbers"] == (1, 2, 3)
        np.testing.assert_array_equal(loaded["data"]["bytes"], np.arange(5) * 1000)
        np.testing.assert_array_equal(loaded["lookup"], [1.5, -2.5, 3.25])
        # the shared array stays one object after the round trip
        assert loaded["alias"] is loaded["lookup"]

    def test_shared_arrays_stored_once(self):
        files = dump_value(make_carrier())
        import io

        with np.load(io.BytesIO(files[ARRAYS_FILE]), allow_pickle=False) as npz:
            names = list(npz.files)
        assert len(names) == 2  # data + lookup; the alias is a reference

    def test_arrayless_values_skip_the_npz(self):
        files = dump_value({"plain": [1, 2, 3]})
        assert set(files) == {PAYLOAD_FILE}
        assert load_value(files) == {"plain": [1, 2, 3]}

    def test_npz_loads_without_pickle(self):
        """The array file must stay ``allow_pickle=False``-clean."""
        import io

        files = dump_value(make_carrier())
        with np.load(io.BytesIO(files[ARRAYS_FILE]), allow_pickle=False) as npz:
            for name in npz.files:
                npz[name]  # would raise if any member needed pickle


class TestAddressing:
    def test_digest_is_stable_and_distinct(self):
        key = ("traffic", 14, 42, None)
        assert digest_key("layer", "traffic", key) == digest_key(
            "layer", "traffic", ("traffic", 14, 42, None)
        )
        assert digest_key("layer", "traffic", key) != digest_key(
            "layer", "traffic", ("traffic", 15, 42, None)
        )
        assert digest_key("layer", "traffic", key) != digest_key(
            "artifact", "traffic", key
        )
        assert len(digest_key("layer", "traffic", key)) == 32


class TestStoreRoundTrip:
    def test_layer_save_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("traffic", 3, 42, None)
        assert store.load_layer("traffic", key) is None
        entry = store.save_layer("traffic", key, make_carrier())
        assert store.load_layer("traffic", key) is not None
        assert entry.kind == "layer" and entry.name == "traffic"
        loaded = store.load_layer("traffic", key)
        np.testing.assert_array_equal(loaded["data"]["day"], np.arange(5))

    def test_artifact_save_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("table1", (), ("config", 3))
        document = {"name": "table1", "rows": [{"a": 1}], "metadata": {}}
        store.save_artifact("table1", key, document)
        assert store.load_artifact("table1", key) == document
        assert store.load_artifact("table1", ("other", (), ())) is None

    def test_save_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("census", 100, 42, 5)
        first = store.save_layer("census", key, make_carrier())
        second = store.save_layer("census", key, make_carrier())
        assert first.digest == second.digest
        assert len(store.entries()) == 1

    def test_manifest_indexes_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        entry = store.save_layer("census", ("census", 1), make_carrier())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == STORE_SCHEMA
        assert entry.digest in manifest["entries"]
        assert manifest["entries"][entry.digest]["name"] == "census"


class TestIntegrity:
    def _corrupt(self, store: ArtifactStore, digest: str, filename: str) -> None:
        path = store.objects_dir / digest / filename
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_corrupted_payload_refused_on_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("traffic", 3)
        entry = store.save_layer("traffic", key, make_carrier())
        self._corrupt(store, entry.digest, PAYLOAD_FILE)
        with pytest.raises(StoreIntegrityError, match="sha256"):
            store.load_layer("traffic", key)

    def test_verify_reports_and_gc_removes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = store.save_layer("census", ("census", 1), make_carrier())
        bad = store.save_layer("traffic", ("traffic", 1), make_carrier())
        self._corrupt(store, bad.digest, ARRAYS_FILE)
        (store.objects_dir / ".tmp-leftover-123").mkdir()
        problems = store.verify()
        assert any("sha256 mismatch" in p for p in problems)
        assert any("staging" in p for p in problems)
        removed = store.gc()
        assert any(bad.digest in item for item in removed)
        assert [entry.digest for entry in store.entries()] == [good.digest]
        assert store.verify() == []

    def test_schema_mismatch_is_invisible_and_collected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        entry = store.save_layer("cloud", ("census", 1), make_carrier())
        meta_path = store.objects_dir / entry.digest / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = STORE_SCHEMA + 1
        meta_path.write_text(json.dumps(meta))
        assert store.load_layer("cloud", ("census", 1)) is None
        removed = store.gc()
        assert any(entry.digest in item for item in removed)

    def test_schema_1_traffic_entry_is_skipped_not_unpickled(self, tmp_path, monkeypatch):
        """Old traffic payloads must never be unpickled: schema-1 ones
        reference a module that no longer exists, and schema-2 ones
        carry no draws for the traffic what-ifs to re-race."""
        import warnings

        import repro.store.warehouse as warehouse

        # GLOBAL repro.flowmon.pack.restore_monitor, called with no args.
        stale = b"\x80\x04crepro.flowmon.pack\nrestore_monitor\n)R."
        key = ("traffic", 14, 42, None)
        for old_schema in (1, 2):
            store = ArtifactStore(tmp_path / f"schema-{old_schema}")
            with monkeypatch.context() as old:
                old.setattr(warehouse, "STORE_SCHEMA", old_schema)
                entry = store._write_entry(
                    "layer", "traffic", key, {PAYLOAD_FILE: stale}
                )
                with pytest.raises(ModuleNotFoundError):  # what the bump avoids
                    store.load_layer("traffic", key)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert store.load_layer("traffic", key) is None
            assert not store.entries()
            mismatch = f"{entry.digest}: store schema {old_schema} != {STORE_SCHEMA}"
            assert any(mismatch in p for p in store.verify())
            assert store.gc() == [f"{entry.digest} (schema {old_schema})"]

    def test_schema_3_census_entry_is_skipped_and_rebuilt(self, tmp_path, monkeypatch):
        """A schema-3 census carries no adoption table for the longitudinal
        rounds to re-decide from: it is never unpickled, ``gc`` collects
        it, and a session rebuilds the census in its place."""
        self._old_census_entry_is_skipped_and_rebuilt(3, tmp_path, monkeypatch)

    def test_schema_4_census_entry_is_skipped_and_rebuilt(self, tmp_path, monkeypatch):
        """A schema-4 census carries no ``published`` records (a census
        what-if's AAAA over the shared universe): it is likewise never
        unpickled, collected and rebuilt."""
        self._old_census_entry_is_skipped_and_rebuilt(4, tmp_path, monkeypatch)

    @staticmethod
    def _old_census_entry_is_skipped_and_rebuilt(old_schema, tmp_path, monkeypatch):
        import warnings

        import repro.store.warehouse as warehouse
        from repro.api import Study, StudyConfig, clear_caches
        from repro.store import set_store
        from repro.telemetry import counts

        config = StudyConfig(days=1, sites=30, seed=4)
        key = Study(config).key("census")
        # GLOBAL repro.flowmon.pack.restore_monitor: unpickling it raises.
        stale = b"\x80\x04crepro.flowmon.pack\nrestore_monitor\n)R."
        store = set_store(tmp_path)
        clear_caches()
        try:
            with monkeypatch.context() as old:
                old.setattr(warehouse, "STORE_SCHEMA", old_schema)
                entry = store._write_entry("layer", "census", key, {PAYLOAD_FILE: stale})
            assert store.load_layer("census", key) is None
            before = counts("builds_total")["census"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                census = Study(config).census
            assert counts("builds_total")["census"] == before + 1
            assert census.ecosystem.adoption.fqdn
            assert census.published == {}
            assert store.gc() == [f"{entry.digest} (schema {old_schema})"]
            clear_caches()
            assert Study(config).census.ecosystem.adoption.fqdn  # the rebuilt entry loads
            assert counts("builds_total")["census"] == before + 1
        finally:
            set_store(None)
            clear_caches()

    def test_missing_entry_detected_against_manifest(self, tmp_path):
        import shutil

        store = ArtifactStore(tmp_path)
        entry = store.save_layer("census", ("census", 2), make_carrier())
        shutil.rmtree(store.objects_dir / entry.digest)
        assert any("manifest indexes missing" in p for p in store.verify())
        store.gc()
        assert store.verify() == []
