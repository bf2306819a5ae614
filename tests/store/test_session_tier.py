"""The store as the session's disk tier: warm starts, fidelity, fallback.

The acceptance contract of the warehouse: a cold process pointed at a
populated store renders every artifact **JSON-equal** to the in-process
build, with zero layer rebuilds (``builds_total`` unchanged, hits in
``store_ops_total``), and a damaged entry degrades to a rebuild instead of
an error.
"""

import functools
import json
import sys
import warnings
from collections import Counter

import pytest

from repro.api import Study, StudyConfig, clear_caches, registry
from repro.api.session import _CACHE
from repro.store import set_store, snapshot_study, warm_start
from repro.store.serialize import PAYLOAD_FILE
from repro.telemetry import counts, registry as metrics_registry

#: One artifact per layer (deps via ``fig7``, whatif via a one-scenario
#: grid) -- small enough to build in seconds, wide enough to cover the
#: whole session surface.
ARTIFACTS = ("table1", "fig5", "table2", "fig7", "obs_availability", "contrast")

CONFIG = StudyConfig(days=4, sites=110, probe_targets=50, parallel=False)
WHATIF_CONFIG = CONFIG.replace(whatif_scenarios=("nat64:DE",))


@pytest.fixture()
def store(tmp_path):
    """An active store rooted in tmp_path; always deactivated after."""
    store = set_store(tmp_path / "warehouse")
    clear_caches()
    try:
        yield store
    finally:
        set_store(None)
        clear_caches()


def render_all(config: StudyConfig) -> dict[str, dict]:
    study = Study(config)
    docs = {name: json.loads(study.artifact(name).to_json()) for name in ARTIFACTS}
    docs["whatif"] = json.loads(Study(WHATIF_CONFIG).artifact("whatif").to_json())
    return docs


class TestWarmStartFidelity:
    def test_disk_warm_start_is_json_identical_and_rebuild_free(self, store):
        cold = render_all(CONFIG)
        assert counts("store_ops_total")["write:traffic"] >= 1  # write-behind happened

        clear_caches()
        assert not _CACHE  # genuinely cold in memory
        before = counts("builds_total")
        warm = render_all(CONFIG)

        assert warm == cold  # bit-identical wire format
        assert counts("builds_total") == before  # zero rebuilds: disk served everything
        for layer in ("traffic", "census", "cloud", "observatory", "whatif"):
            assert counts("store_ops_total")[f"hit:{layer}"] >= 1

    def test_warm_start_primes_caches_in_bulk(self, store):
        study = Study(CONFIG)
        snapshot_study(store, study)
        clear_caches()
        primed = warm_start(store, CONFIG)
        assert set(primed) == {
            "traffic", "census", "cloud", "dependencies", "observatory",
            "sentinel",
        }
        before = counts("builds_total")
        fresh = Study(CONFIG)
        fresh.traffic, fresh.census, fresh.cloud, fresh.observatory
        assert counts("builds_total") == before

    def test_unknown_layer_rejected(self, store):
        with pytest.raises(ValueError, match="unknown layer"):
            snapshot_study(store, Study(CONFIG), ("warp",))
        with pytest.raises(ValueError, match="unknown layer"):
            warm_start(store, CONFIG, ("warp",))


class TestWarmRenders:
    def test_warm_renders_recompute_nothing(self, store, monkeypatch):
        """A warm session renders from loaded layers and rebuilds nothing.

        No render constructs a ``WebEcosystem``, runs a crawl, regenerates
        traffic or fits a LOESS point one at a time: ``longitudinal``
        re-decides its drifted rounds over the loaded census, and the MSTL
        figures smooth with the row kernel.
        """
        from repro.crawler.crawl import WebCensus
        from repro.traffic import draws
        from repro.traffic.generate import TrafficGenerator
        from repro.web.ecosystem import WebEcosystem

        snapshot_study(store, Study(CONFIG))
        clear_caches()

        calls: Counter = Counter()
        rendering = [None]

        def count(label, fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[rendering[0], label] += 1
                return fn(*args, **kwargs)

            return counted

        mstl_module = sys.modules["repro.core.mstl"]
        monkeypatch.setattr(mstl_module, "_fit_point", count("loess point", mstl_module._fit_point))
        monkeypatch.setattr(TrafficGenerator, "draw", count("draw", TrafficGenerator.draw))
        monkeypatch.setattr(WebEcosystem, "__init__", count("ecosystem", WebEcosystem.__init__))
        monkeypatch.setattr(WebCensus, "run", count("crawl", WebCensus.run))
        counted_realize = count("realize", draws.realize)
        for module in list(sys.modules.values()):
            if getattr(module, "realize", None) is draws.realize:
                monkeypatch.setattr(module, "realize", counted_realize)

        names = [name for name in registry.names() if not name.startswith("whatif")]
        assert len(names) == 33
        builds = metrics_registry().get("builds_total").sample_items()
        study = Study(CONFIG)
        for name in names:
            rendering[0] = name
            study.artifact(name)

        assert metrics_registry().get("builds_total").sample_items() == builds
        assert calls == {}


class TestDegradation:
    def test_corrupt_entry_falls_back_to_rebuild_with_warning(self, store):
        study = Study(CONFIG)
        study.traffic  # build + write behind
        # Corrupt the traffic payload on disk.
        [entry] = [e for e in store.entries() if e.name == "traffic"]
        path = store.objects_dir / entry.digest / PAYLOAD_FILE
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))

        clear_caches()
        before = counts("builds_total")
        with pytest.warns(RuntimeWarning, match="could not load the traffic"):
            rebuilt = Study(CONFIG).traffic
        assert rebuilt.num_days == CONFIG.days
        assert counts("builds_total")["traffic"] == before["traffic"] + 1
        assert counts("store_ops_total")["error:traffic"] >= 1

    def test_injected_corruption_rebuilds_and_repairs_bit_identically(self, store):
        """Satellite contract: corrupt read -> warn + rebuild + repair.

        The ``corrupt-blob`` fault mutates the *read*, never the disk;
        the session must warn, rebuild the layer, and write the repaired
        entry back -- after which the payload bytes are identical to the
        pristine ones and a faultless reload is a clean store hit.
        """
        from repro.resilience import FaultPlan, FaultSpec, inject_faults

        Study(CONFIG).traffic  # build + write-behind the pristine entry
        [entry] = [e for e in store.entries() if e.name == "traffic"]
        payload_path = store.objects_dir / entry.digest / PAYLOAD_FILE
        pristine = payload_path.read_bytes()

        clear_caches()
        before = counts("builds_total")
        writes = counts("store_ops_total")["write:traffic"]
        # count == horizon: the very first blob read comes back corrupted.
        plan = FaultPlan([FaultSpec("corrupt-blob", count=1, horizon=1)], seed=7)
        with inject_faults(plan):
            with pytest.warns(RuntimeWarning, match="could not load the traffic"):
                rebuilt = Study(CONFIG).traffic
        assert rebuilt.num_days == CONFIG.days
        assert counts("builds_total")["traffic"] == before["traffic"] + 1
        assert counts("store_ops_total")["error:traffic"] >= 1
        assert counts("store_ops_total")["write:traffic"] == writes + 1  # the repair write

        # Round trip of the repaired entry: bit-identical bytes on disk,
        # and a faultless cold load serves it with zero rebuilds.
        assert payload_path.read_bytes() == pristine
        clear_caches()
        before = counts("builds_total")
        Study(CONFIG).traffic
        assert counts("builds_total") == before
        assert store.verify() == []

    def test_transient_read_fault_is_retried_and_recovered(self, store):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults

        Study(CONFIG).traffic
        clear_caches()
        retries = counts("retries_total")
        before = counts("builds_total")
        # Exactly the first read op fails; the retry's second attempt
        # reads clean, so the disk tier still serves -- no rebuild.
        plan = FaultPlan([FaultSpec("store-read", count=1, horizon=1)], seed=7)
        with inject_faults(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning would fail
                Study(CONFIG).traffic
        assert counts("builds_total") == before
        assert counts("store_ops_total")["retry:traffic"] >= 1
        assert (counts("retries_total") - retries)["recovered:store:traffic"] == 1

    def test_exhausted_read_retries_degrade_to_rebuild(self, store):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults

        Study(CONFIG).traffic
        clear_caches()
        retries = counts("retries_total")
        before = counts("builds_total")
        # Every read op fails: the store policy gives up, the session
        # falls back to a rebuild instead of erroring out.
        plan = FaultPlan([FaultSpec("store-read", count=8, horizon=8)], seed=7)
        with inject_faults(plan):
            with pytest.warns(RuntimeWarning, match="could not load the traffic"):
                Study(CONFIG).traffic
        assert counts("builds_total")["traffic"] == before["traffic"] + 1
        assert counts("store_ops_total")["error:traffic"] >= 1
        assert (counts("retries_total") - retries)["gaveup:store:traffic"] >= 1

    def test_no_store_means_no_store_traffic(self, tmp_path):
        set_store(None)
        clear_caches()
        before = counts("store_ops_total")
        Study(CONFIG).census
        assert counts("store_ops_total") == before


class TestEnvResolution:
    def test_repro_store_env_var_activates_a_store(self, tmp_path, monkeypatch):
        from repro.store import active_store, reset_store

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        reset_store()
        try:
            store = active_store()
            assert store is not None
            assert store.root == tmp_path / "env-store"
        finally:
            monkeypatch.delenv("REPRO_STORE")
            reset_store()

    def test_no_env_no_store(self, monkeypatch):
        from repro.store import active_store, reset_store

        monkeypatch.delenv("REPRO_STORE", raising=False)
        reset_store()
        try:
            assert active_store() is None
        finally:
            reset_store()
