"""Batch-workload child process: one fresh interpreter per role.

``run.py`` starts it as ``python3 perfbench/worker.py '<json spec>'``
with ``src`` on ``PYTHONPATH``.  Roles:

* ``cold``   -- set-up imports the program; each pass builds every layer
  and renders the 33 non-what-if artifacts into an empty warehouse.
* ``whatif`` -- set-up builds the baseline; the pass runs the default
  what-if grid in one ``run_sweep`` call.
* ``fill``   -- set-up only: fills a warehouse as a cold pass does.
* ``warm``   -- each pass drops the process caches, loads every stored
  layer through the session and renders the same 33 artifacts.

With ``"census": true`` the child then runs the layer census: every
layer timed from outside, one public entry point per call.

Protocol, as JSON lines on the original stdout (anything the program
prints goes to stderr): ``{"event": "ready", ...}`` once set-up is done;
then it reads ``run`` or ``exit`` from stdin; after ``run`` it prints
``{"event": "result", ...}`` and exits.  A timer runs a calibration
slice every 50 ms (``calib.Sampler``); slice time is excluded from every
timed interval, and each call is calibrated against the slices that ran
during it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from typing import NamedTuple

from calib import Sampler, factor

#: The six stored session layers, in build order.
LAYERS = ("traffic", "census", "cloud", "dependencies", "observatory", "sentinel")

#: The five residences of the paper's client-side study.
RESIDENCES = ("A", "B", "C", "D", "E")

#: Artifacts whose per-render time the census reports on their own.
NAMED_ARTIFACTS = ("longitudinal", "fig2", "fig13", "fig14", "fig15")


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def document_digest(document: dict) -> str:
    """SHA-256 of a document in the serving tier's wire encoding."""
    body = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(body).hexdigest()


def frame_digest(frame) -> str:
    """SHA-256 of a what-if DeltaFrame: its interning tables and columns."""
    digest = hashlib.sha256()
    digest.update(json.dumps([list(frame.scenarios), list(frame.countries)]).encode())
    digest.update(frame.data.tobytes())
    return digest.hexdigest()


def scenario_digests(frame) -> dict[str, str]:
    """``{"whatif:<spec>": SHA-256}`` of each scenario's rows of a DeltaFrame.

    The rows are hashed with their scenario index zeroed, so a scenario's
    digest is the same in the whole grid's frame as in a one-scenario
    sweep's: the traced run compares the two.
    """
    digests = {}
    for index, spec in enumerate(frame.scenarios):
        rows = frame.data[frame.data["scenario"] == index].copy()
        rows["scenario"] = 0
        digest = hashlib.sha256(json.dumps([spec, list(frame.countries)]).encode())
        digest.update(rows.tobytes())
        digests[f"whatif:{spec}"] = digest.hexdigest()
    return digests


def prometheus_samples(text: str) -> dict[tuple[str, str], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``."""
    samples: dict[tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, brace, labels = series.partition("{")
        samples[(name, brace + labels)] = float(value)
    return samples


class Call(NamedTuple):
    """One timed call into the program, slice time excluded."""

    label: str
    wall: float
    cpu: float
    #: Reference slice time over the mean of the slices that ran during
    #: the call -- or, for a call too short to catch one, just before it.
    factor: float


class Recorder:
    """Times calls into the program one at a time, less the slices inside them."""

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.calls: list[Call] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def call(self, label: str, fn):
        """Run ``fn()`` as one timed operation.

        Returns the value and the call's calibrated wall time.
        """
        self.attempted += 1
        first = len(self.sampler.slices)
        spent, spent_cpu = self.sampler.spent, self.sampler.spent_cpu
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            value = None
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start - (self.sampler.spent - spent)
        cpu = cpu_seconds() - cpu0 - (self.sampler.spent_cpu - spent_cpu)
        slices = self.sampler.slices
        local = factor(slices[first:] or slices[max(0, first - 3):first])
        self.calls.append(Call(label, wall, cpu, local))
        return value, wall * local


def import_program() -> None:
    """Import every program module, so no pass pays a first import."""
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name == "repro.__main__" or module.name.startswith("repro.devtools"):
            continue
        __import__(module.name)


def counters(name: str) -> dict[str, float]:
    """``{labels: value}`` of one registry instrument, from its Prometheus text."""
    from repro.telemetry import registry

    samples = prometheus_samples(registry().render_prometheus())
    return {labels: v for (n, labels), v in samples.items() if n == name}


class Workload:
    """Set-up and one measured pass of a batch workload."""

    def __init__(self, spec: dict, rec: Recorder) -> None:
        from repro.api import StudyConfig, registry

        self.spec = spec
        self.rec = rec
        self.config = StudyConfig(parallel=False, **spec["config"])
        self.tmp = spec["tmp"]
        self.names = [n for n in registry.names() if not n.startswith("whatif")]
        self.study = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        from repro.api import Study
        from repro.store import set_store

        role = self.spec["role"]
        if role == "fill":
            set_store(self.spec["store"])
            study = Study(self.config)
            for layer in LAYERS:
                getattr(study, layer)
            set_store(None)
        elif role == "whatif":
            from repro.whatif import compute_baseline_signals

            self.study = Study(self.config)
            for layer in ("traffic", "census", "observatory"):
                getattr(self.study, layer)
            compute_baseline_signals(self.study)

    # -- the measured pass -------------------------------------------------------

    def run_pass(self) -> dict[str, str]:
        role = self.spec["role"]
        if role == "cold":
            return self.cold_pass()
        if role == "warm":
            return self.warm_pass()
        return self.whatif_pass()

    def render(self, study, digests: dict[str, str]) -> None:
        from repro.serve import artifact_document

        for name in self.names:
            document, _ = self.rec.call(
                f"artifact:{name}", lambda name=name: artifact_document(study, name)
            )
            if document is not None:
                digests[name] = document_digest(document)

    def cold_pass(self) -> dict[str, str]:
        from repro.api import Study, clear_caches
        from repro.store import set_store

        store_dir = tempfile.mkdtemp(prefix="cold-", dir=self.tmp)
        digests: dict[str, str] = {}
        try:
            clear_caches()
            set_store(store_dir)
            gc.collect()
            study = Study(self.config)
            for layer in LAYERS:
                self.rec.call(layer, lambda layer=layer: getattr(study, layer))
            self.render(study, digests)
        finally:
            set_store(None)
            shutil.rmtree(store_dir, ignore_errors=True)
        return digests

    def warm_pass(self) -> dict[str, str]:
        from repro.api import Study, clear_caches
        from repro.store import set_store

        digests: dict[str, str] = {}
        clear_caches()
        set_store(self.spec["store"])
        gc.collect()
        builds_before = counters("builds_total")
        try:
            study = Study(self.config)
            for layer in LAYERS:
                self.rec.call(layer, lambda layer=layer: getattr(study, layer))
            self.render(study, digests)
        finally:
            set_store(None)
        if counters("builds_total") != builds_before:
            self.rec.fail("warm pass rebuilt a layer instead of loading it")
        return digests

    def whatif_pass(self) -> dict[str, str]:
        from repro.whatif import default_sweep_grid, run_sweep

        sweep, _ = self.rec.call(
            "sweep:default",
            lambda: run_sweep(self.study, default_sweep_grid(), parallel=False),
        )
        if sweep is None:
            return {}
        return {"whatif:grid": frame_digest(sweep.frame), **scenario_digests(sweep.frame)}


def spec_name(spec: str) -> str:
    """``dualstack:Amazon+ispv6`` -> ``dualstack-Amazon_ispv6`` (metric names)."""
    return spec.replace(":", "-").replace("@", "-").replace("+", "_")


def layer_census(workload: Workload) -> tuple[dict[str, float], dict[str, str]]:
    """Time every layer from outside, one public entry point per call.

    Returns the per-layer values, every time calibrated call by call,
    and the output digests (artifact documents and each what-if
    scenario's rows), which must equal the untraced pass's.  Counts come
    from the registry's ``builds_total`` and ``store_ops_total``
    instruments.
    """
    from repro.api import Study, clear_caches
    from repro.crawler.crawl import CensusConfig, WebCensus
    from repro.serve import artifact_document
    from repro.store import ArtifactStore, set_store, snapshot_study, warm_start
    from repro.web.ecosystem import WebEcosystem, WebEcosystemConfig
    from repro.whatif import default_sweep_grid, run_sweep

    rec, config = workload.rec, workload.config
    m: dict[str, float] = {}
    digests: dict[str, str] = {}

    set_store(None)
    clear_caches()
    gc.collect()

    # Traffic, one residence at a time (own cache keys, dropped after).
    for name in RESIDENCES:
        one = Study(config.replace(residences=(name,)))
        _, m[f"traffic.gen_s.{name}"] = rec.call(f"gen:{name}", lambda one=one: one.traffic)
    clear_caches()
    gc.collect()

    # The census, split into the synthetic web and the crawl over it.
    ecosystem, m["census.ecosystem_s"] = rec.call(
        "census:ecosystem",
        lambda: WebEcosystem(WebEcosystemConfig(num_sites=config.sites, seed=config.seed)),
    )
    _, m["census.crawl_s"] = rec.call(
        "census:crawl",
        lambda: WebCensus(
            ecosystem, CensusConfig(link_clicks=config.link_clicks, seed=config.seed)
        ).run(),
    )
    del ecosystem
    m["census.sites_per_s"] = config.sites / m["census.crawl_s"]
    gc.collect()

    # Every layer of a cold study, then the frames, then the artifacts.
    study = Study(config)
    traffic, m["traffic.build_s"] = rec.call("traffic", lambda: study.traffic)
    frame_s, rows = 0.0, 0
    for name, dataset in sorted(traffic.datasets.items()):
        frame, seconds = rec.call(f"frame:{name}", dataset.frame)
        frame_s += seconds
        rows += len(frame)
    m["flowmon.frame_s"], m["flowmon.frame_rows"] = frame_s, rows
    m["traffic.flows"] = rows
    m["traffic.us_per_flow"] = m["traffic.build_s"] / rows * 1e6
    _, m["census.build_s"] = rec.call("census", lambda: study.census)
    _, m["cloud.build_s"] = rec.call("cloud", lambda: study.cloud)
    _, m["deps.build_s"] = rec.call("dependencies", lambda: study.dependencies)
    observatory, m["observatory.build_s"] = rec.call("observatory", lambda: study.observatory)
    m["observatory.probes"] = len(observatory.frame)
    m["observatory.probes_per_s"] = m["observatory.probes"] / m["observatory.build_s"]
    feed, m["sentinel.build_s"] = rec.call("sentinel", lambda: study.sentinel)
    m["sentinel.points"], m["sentinel.events"] = feed.points, len(feed.events)

    render_s, size = 0.0, 0
    for name in workload.names:
        document, seconds = rec.call(
            f"artifact:{name}", lambda name=name: artifact_document(study, name)
        )
        render_s += seconds
        if document is not None:
            size += len(json.dumps(document, separators=(",", ":")).encode("utf-8"))
            digests[name] = document_digest(document)
        if name in NAMED_ARTIFACTS:
            m[f"artifact.{name}_s"] = seconds
    m["artifacts.render_s"], m["artifacts.bytes"] = render_s, size

    # The warehouse: each layer written, then read back, on its own.
    store_dir = tempfile.mkdtemp(prefix="census-", dir=workload.tmp)
    try:
        store = ArtifactStore(store_dir)
        write_s = 0.0
        for layer in LAYERS:
            _, m[f"store.write_s.{layer}"] = rec.call(
                f"write:{layer}",
                lambda layer=layer: snapshot_study(store, study, (layer,)),
            )
            write_s += m[f"store.write_s.{layer}"]
        m["store.bytes"] = store.total_bytes()
        del study, traffic, observatory, feed
        read_s = 0.0
        for layer in LAYERS:
            clear_caches()
            gc.collect()
            primed, m[f"store.read_s.{layer}"] = rec.call(
                f"read:{layer}", lambda layer=layer: warm_start(store, config, (layer,))
            )
            if primed != [layer]:
                rec.fail(f"warm_start({layer!r}) primed {primed!r}")
            read_s += m[f"store.read_s.{layer}"]
        mib = m["store.bytes"] / 2**20
        m["store.write_mb_per_s"] = mib / write_s
        m["store.read_mb_per_s"] = mib / read_s

        # The session's read-through, as a warm start uses it.
        clear_caches()
        set_store(store)
        ops_before = counters("store_ops_total")
        warm = Study(config)
        for layer in LAYERS:
            rec.call(f"load:{layer}", lambda layer=layer: getattr(warm, layer))
        ops = {
            labels: v - ops_before.get(labels, 0.0)
            for labels, v in counters("store_ops_total").items()
        }
        hits = sum(v for labels, v in ops.items() if 'op="hit:' in labels)
        misses = sum(v for labels, v in ops.items() if 'op="miss:' in labels)
        m["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["store.retries"] = sum(v for labels, v in ops.items() if 'op="retry:' in labels)
    finally:
        set_store(None)
        shutil.rmtree(store_dir, ignore_errors=True)

    # What-if: the default grid, one scenario per call, over the loaded baseline.
    builds_before = counters("builds_total")
    scenario_s = 0.0
    grid = default_sweep_grid()
    for scenario in grid:
        spec = scenario.spec()
        sweep, seconds = rec.call(
            f"scenario:{spec}",
            lambda scenario=scenario: run_sweep(warm, (scenario,), parallel=False),
        )
        m[f"whatif.scenario_s.{spec_name(spec)}"] = seconds
        scenario_s += seconds
        if sweep is not None:
            digests.update(scenario_digests(sweep.frame))
    m["whatif.scenarios_per_s"] = len(grid) / scenario_s
    rebuilt = {
        labels: v - builds_before.get(labels, 0.0)
        for labels, v in counters("builds_total").items()
    }
    for layer in ("traffic", "census", "cloud", "dependencies", "observatory"):
        m[f"whatif.rebuilds.{layer}"] = rebuilt.get(f'{{layer="whatif:{layer}"}}', 0.0)
    clear_caches()
    return m, digests


def main() -> int:
    sampler = Sampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    # The protocol owns the real stdout; the program's prints go to stderr.
    out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(event: dict) -> None:
        out.write(json.dumps(event) + "\n")
        out.flush()

    import_program()
    from repro.store import set_store

    set_store(None)  # never the environment's REPRO_STORE
    rec = Recorder(sampler)
    workload = Workload(spec, rec)
    workload.setup()
    sampler.stop()
    emit({"event": "ready", "slices": sampler.slices})
    sampler.slices = []
    if sys.stdin.readline().strip() != "run":
        return 0
    sampler.start()

    passes = []
    outputs: dict[str, str] | None = None
    peak_rss_mb = None
    while len(passes) < spec["passes"]:
        rec.calls = []
        gc.collect()
        digests = workload.run_pass()
        if outputs is None:
            outputs = digests
        elif digests != outputs:
            rec.fail(f"pass {len(passes) + 1} outputs differ from pass 1")
        # A pass submits all its requests (33 artifacts, or the what-if
        # grid) at once, so each one's latency from its due time is its
        # completion time.
        figures = {"wall": 0.0, "cal_wall": 0.0, "cpu": 0.0, "cal_cpu": 0.0}
        latencies, cal_latencies = [], []
        for call in rec.calls:
            figures["wall"] += call.wall
            figures["cal_wall"] += call.wall * call.factor
            figures["cpu"] += call.cpu
            figures["cal_cpu"] += call.cpu * call.factor
            if call.label.startswith(("artifact:", "sweep:")):
                latencies.append(figures["wall"])
                cal_latencies.append(figures["cal_wall"])
        passes.append({**figures, "latencies": latencies, "cal_latencies": cal_latencies})
        if peak_rss_mb is None:
            # The peak up to the end of the first pass, as one run of the
            # CLI would reach it: later warm passes in the same process
            # start from memory the earlier ones left behind.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    census = None
    if spec.get("census"):
        rec.calls = []
        gc.collect()
        metrics, census_digests = layer_census(workload)
        for name, digest in census_digests.items():
            if outputs and name in outputs and outputs[name] != digest:
                rec.fail(f"traced output {name} differs from the untraced pass")
        census = {"metrics": metrics, "calls": rec.calls}
    sampler.stop()
    emit({
        "event": "result",
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "slices": sampler.slices,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors[:20],
        "census": census,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
