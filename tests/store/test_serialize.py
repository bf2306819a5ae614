"""The codec's encode and decode paths: what they write, what they cost
the collector, and what they leave behind."""

import gc
import io
import os
import pickle
import subprocess
from collections import Counter

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.net.addr import Family
from repro.store.serialize import (
    ARRAYS_FILE,
    PAYLOAD_FILE,
    _ExternalizedUnpickler,
    _ExternalizingPickler,
    _stored_array,
    dump_value,
    load_value,
)


def _members(files: dict[str, bytes]) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(files[ARRAYS_FILE]), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _graph(rows: int = 100_000) -> dict:
    """``rows`` collector-tracked lists around one externalized array."""
    return {"rows": [[i] for i in range(rows)], "column": np.arange(rows)}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the collector in the given state, then restore it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.fixture
def collector_off():
    before = gc.isenabled()
    gc.disable()
    yield
    if before:
        gc.enable()


class TestEncode:
    def test_members_in_first_appearance_order(self):
        first, second, third = np.arange(3), np.ones(2), np.zeros(4, dtype=np.int8)
        files = dump_value({"a": first, "b": [second, first], "c": (third, second)})
        members = _members(files)
        assert list(members) == ["arr_0", "arr_1", "arr_2"]
        for name, array in zip(members, (first, second, third)):
            assert members[name].tobytes() == array.tobytes()
            assert members[name].dtype == array.dtype

    def test_object_dtype_arrays_stay_inline(self):
        mixed = np.array([1, "two", None], dtype=object)
        files = dump_value({"mixed": mixed})
        assert set(files) == {PAYLOAD_FILE}  # no npz member for it
        loaded = load_value(files)["mixed"]
        assert loaded.dtype == object and loaded.tolist() == [1, "two", None]

    def test_stored_array_resolves_only_inside_load_value(self):
        with pytest.raises(pickle.UnpicklingError):
            _stored_array("arr_0")
        payload = dump_value({"column": np.arange(3)})[PAYLOAD_FILE]
        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(payload)


class Outsider:
    """A class from outside ``repro``: no stored layer names one."""


def _call_payload(module: str, name: str, *args: str) -> bytes:
    """A protocol-4 payload calling the global ``module``/``name`` with
    ``args``; ``STACK_GLOBAL`` follows a dotted ``name`` by attribute."""

    def text(value: str) -> bytes:
        data = value.encode()
        return pickle.BINUNICODE + len(data).to_bytes(4, "little") + data

    target = text(module) + text(name) + pickle.STACK_GLOBAL
    call = pickle.MARK + b"".join(map(text, args)) + pickle.TUPLE + pickle.REDUCE
    return pickle.PROTO + b"\x04" + target + call + pickle.STOP


class TestResolve:
    @pytest.mark.parametrize(
        "value",
        [subprocess.Popen, os.system, eval, cli_main, Outsider()],
        ids=["subprocess.Popen", "os.system", "builtins.eval", "repro-function", "test-class"],
    )
    def test_refuses_what_no_layer_stores(self, value):
        with pytest.raises(pickle.UnpicklingError, match="not a class stored layers use"):
            load_value({PAYLOAD_FILE: pickle.dumps(value)})

    @pytest.mark.parametrize(
        ("module", "name"),
        [("repro.store.serialize", "io.FileIO"), ("repro.serve.service", "gzip.GzipFile")],
    )
    def test_refuses_a_dotted_name_leaving_repro(self, module, name, tmp_path):
        target = tmp_path / "written"
        payload = _call_payload(module, name, str(target), "w")
        with pytest.raises(pickle.UnpicklingError, match="not a class stored layers use"):
            load_value({PAYLOAD_FILE: payload})
        assert not target.exists()
        pickle.loads(payload).close()  # plain pickle follows the chain and writes
        assert target.exists()

    def test_refuses_a_foreign_class_a_repro_module_imports(self):
        payload = _call_payload("repro.util.procpool", "ProcessPoolExecutor")
        with pytest.raises(pickle.UnpicklingError, match="not a class stored layers use"):
            load_value({PAYLOAD_FILE: payload})

    def test_resolves_what_layers_store(self):
        value = {
            "counter": Counter("aab"),
            "rng": np.random.default_rng(3),
            "family": Family.V6,
            "mixed": np.array([1, "two", None], dtype=object),
        }
        loaded = load_value(dump_value(value))
        assert loaded["counter"] == Counter("aab")
        assert loaded["rng"].integers(1 << 30) == value["rng"].integers(1 << 30)
        assert loaded["family"] is Family.V6
        assert loaded["mixed"].tolist() == [1, "two", None]


class TestCollector:
    def test_load_runs_no_collection(self):
        files = dump_value(_graph())
        before = gc.isenabled()
        gc.enable()
        phases: list[str] = []

        def watch(phase: str, info: dict) -> None:
            phases.append(phase)

        gc.callbacks.append(watch)
        try:
            loaded = load_value(files)
        finally:
            gc.callbacks.remove(watch)
            if not before:
                gc.disable()
        assert len(loaded["rows"]) == 100_000
        assert phases == []

    def test_collector_state_restored(self, collector):
        load_value(dump_value(_graph(1_000)))
        assert gc.isenabled() is collector

    def test_collector_state_restored_after_a_missing_array(self, collector):
        files = dump_value(_graph(1_000))
        del files[ARRAYS_FILE]
        with pytest.raises(pickle.UnpicklingError, match="'arr_0' missing from arrays.npz"):
            load_value(files)
        assert gc.isenabled() is collector

    def test_no_codec_object_outlives_a_call(self, collector_off):
        load_value(dump_value(_graph(1_000)))
        codec = (_ExternalizingPickler, _ExternalizedUnpickler)
        assert not [obj for obj in gc.get_objects() if type(obj) in codec]

    def test_dump_leaves_no_cycles(self, collector_off):
        value = _graph(1_000)
        gc.collect()
        dump_value(value)
        assert gc.collect() == 0
