"""Host-calibrated benchmark of the reproduction: four workloads, one command.

    python3 perfbench/run.py --workload cold_artifacts --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (``src/repro`` must exist).  Every run
starts fresh interpreters for the program, ignores ``REPRO_STORE``, keeps
every warehouse in a temporary directory inside the checkout and removes
it afterwards.  ``--trace 0`` prints the gated end-to-end metrics;
``--trace 1`` runs the layer census and prints the per-layer metrics.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

import calib
import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_artifacts", "whatif_default", "warm_start", "serve_mixed")

#: Program configs per scale.  ``smoke`` is the scale ROADMAP's numbers
#: use; ``tiny`` only serves the smoke test.
SCALES = {
    "smoke": {
        "batch": {"days": 14, "sites": 300},
        "serve": {"days": 7, "sites": 250, "probe_targets": 120},
    },
    "tiny": {
        "batch": {"days": 4, "sites": 120, "probe_targets": 60},
        "serve": {"days": 3, "sites": 100, "probe_targets": 50},
    },
}

#: Program seeds whose smoke-scale worlds are within 3% of the median
#: flow count and 6% of the median crawl-request count (screened over
#: seeds 0-79, where both vary by 8-11% IQR).  The benchmark seed picks
#: one, so inputs vary from seed to seed but the amount of work does not.
WORLD_SEEDS = (8, 17, 21, 22, 26, 40, 66, 73)

#: Set-ups per timed run, each in fresh processes; ``setup_s`` is their
#: median.
SETUP_SAMPLES = 3

#: Nominal seconds per measured pass: a run makes ``seconds // PASS_S``
#: passes (at least one), a count that never depends on the host's speed.
#: A what-if pass leaves its overlays cached, so it runs once.
PASS_S = {"cold_artifacts": 5.0, "whatif_default": float("inf"), "warm_start": 2.0}

#: serve_mixed: open-loop rate, and the request kinds of its mix.  The
#: mix is designed, not observed traffic: each kind gets an equal share,
#: exactly, so no weight is a guess and every seed sends as many of each.
SERVE_RATE = 100.0
SERVE_KINDS = ("hot", "revalidate", "events", "contrast", "metrics", "healthz")
HOT_ARTIFACTS = ("contrast", "obs_availability", "table1")
#: Artifacts the server warms in set-up (sentinel_events feeds /v1/events).
SERVE_WARM = (*HOT_ARTIFACTS, "sentinel_events")
#: /v1/events filters: ``since`` days x countries (+ none) x severities,
#: a key space larger than the server's 512-entry hot cache.
EVENTS_SINCE = 64
SEVERITIES = ("watch", "elevated", "critical")

#: Seconds a child may take to report set-up or a result.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The run could not complete; no result is printed."""


# -- child processes ------------------------------------------------------------


class Child:
    """A program process speaking the JSON-lines protocol on its stdout."""

    def __init__(self, script: str, spec: dict, env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        self.buffer = b""
        self.rusage = None

    def event(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{self.proc.args[1]}: no answer within {timeout:.0f} s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"{self.proc.args[1]} exited before answering")
                self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float = 60.0) -> None:
        """Close stdin and reap the process; its rusage holds the peak RSS."""
        if self.rusage is not None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        if self.proc.returncode != 0:
            raise BenchError(f"{self.proc.args[1]} exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.rusage is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """One benchmark invocation: its children, slices and failure counts."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        #: Every slice of the run, whichever process ran it (host.cal_ms).
        self.slices: list[float] = []
        self.children: list[Child] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[str, str] = {}
        (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp")
        seed = WORLD_SEEDS[args.seed % len(WORLD_SEEDS)]
        self.batch = {**SCALES[args.scale]["batch"], "seed": seed}
        self.serve = {**SCALES[args.scale]["serve"], "seed": seed}
        self.env = {
            key: value for key, value in os.environ.items() if key != "REPRO_STORE"
        }
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, script: str, spec: dict) -> Child:
        child = Child(script, spec, self.env)
        self.children.append(child)
        return child

    def ready(self, child: Child) -> tuple[float, list[float]]:
        """Wait for set-up: its wall time less the slices inside it, and the slices."""
        event = child.event()
        elapsed = time.perf_counter() - child.started
        self.slices.extend(event["slices"])
        return elapsed - sum(event["slices"]), event["slices"]

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass


def setup_figures(setups: list[tuple]) -> tuple[float, float]:
    """Median raw set-up, and median set-up calibrated by its own slices.

    Each set-up runs in its own processes at its own moment, so it is
    measured against the slices it ran, not the run's.
    """
    raw = statistics.median(seconds for seconds, _ in setups)
    cal = statistics.median(seconds * calib.factor(slices) for seconds, slices in setups)
    return raw, cal


# -- batch workloads ---------------------------------------------------------------

ROLES = {"cold_artifacts": "cold", "whatif_default": "whatif", "warm_start": "warm"}


def _redoes(workload: str, label: str) -> bool:
    """Is this census call part of redoing the workload's measured work?"""
    if workload == "cold_artifacts":
        return label in (
            "traffic", "census", "cloud", "dependencies", "observatory", "sentinel"
        ) or label.startswith(("frame:", "artifact:", "write:"))
    if workload == "warm_start":
        return label.startswith(("load:", "artifact:"))
    return label.startswith("scenario:")


def batch_setup(run: Run, workload: str, census: bool) -> tuple[list[tuple], Child]:
    """Set up ``SETUP_SAMPLES`` times; the last set-up goes on to measure.

    Returns (raw seconds, slices) per set-up, and the measuring child.
    """
    samples = 1 if census else SETUP_SAMPLES
    setups: list[tuple] = []
    child = None
    for index in range(samples):
        spec = {
            "role": ROLES[workload],
            "config": run.batch,
            "tmp": run.tmp,
            "passes": 1 if census else max(1, int(run.args.seconds // PASS_S[workload])),
            "census": census,
        }
        setup, slices = 0.0, []
        if workload == "warm_start":
            spec["store"] = os.path.join(run.tmp, f"store-{index}")
            fill = run.spawn("worker.py", {**spec, "role": "fill"})
            seconds, fill_slices = run.ready(fill)
            setup += seconds
            slices += fill_slices
            fill.send("exit")
            fill.finish()
        child = run.spawn("worker.py", spec)
        seconds, child_slices = run.ready(child)
        setups.append((setup + seconds, slices + child_slices))
        if index < samples - 1:
            child.send("exit")
            child.finish()
    return setups, child


def collect(run: Run, child: Child) -> dict:
    """The child's result event; folds its slices and failures into the run."""
    child.send("run")
    result = child.event()
    child.finish()
    run.slices.extend(result["slices"])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.errors.extend(result["errors"])
    return result


def run_batch(run: Run) -> tuple[dict, dict, dict | None]:
    """A batch workload: (raw, calibrated, per-layer) figures.

    The worker calibrates each call by the slices that ran during it; a
    pass's figures sum its calls, and the gated values are medians over
    the run's passes.
    """
    workload, census = run.args.workload, bool(run.args.trace)
    setups, child = batch_setup(run, workload, census)
    result = collect(run, child)
    run.outputs = result["outputs"] or {}
    passes = result["passes"]
    raw, cal = {}, {}
    raw["setup_s"], cal["setup_s"] = setup_figures(setups)
    for name, key in (("wall_s", "wall"), ("cpu_s", "cpu")):
        raw[name] = statistics.median(one[key] for one in passes)
        cal[name] = statistics.median(one[f"cal_{key}"] for one in passes)
    for figures, key in ((raw, "latencies"), (cal, "cal_latencies")):
        figures["p50_ms"] = 1000.0 * statistics.median(
            seconds for one in passes for seconds in one[key]
        )
    raw["peak_rss_mb"] = cal["peak_rss_mb"] = result["peak_rss_mb"]
    raw["passes"] = len(passes)
    layers = None
    if census:
        layers = result["census"]["metrics"]
        redone = sum(
            wall * factor
            for label, wall, _, factor in result["census"]["calls"]
            if _redoes(workload, label)
        )
        layers["trace.overhead_s"] = redone - cal["wall_s"]
    return raw, cal, layers


def batch_census(run: Run) -> dict:
    """The batch layer census on its own (traced serve_mixed runs)."""
    child = run.spawn("worker.py", {
        "role": "census", "config": run.batch, "tmp": run.tmp, "passes": 0, "census": True,
    })
    run.ready(child)
    return collect(run, child)["census"]["metrics"]


# -- serve_mixed ---------------------------------------------------------------------


class ServeSession:
    """One server process plus the generator's two connections to it."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.closed = False
        started = time.perf_counter()
        self.server = run.spawn("server.py", {"config": run.serve, "warm": list(SERVE_WARM)})
        ready = self.server.event()
        server_setup = time.perf_counter() - started - sum(ready["slices"])
        run.slices.extend(ready["slices"])
        self.setup_slices = ready["slices"]
        self.socks = loadgen.connect(ready["port"], 2)
        # The generator's own set-up: fetch the hot documents (their ETags
        # drive revalidation) and touch each country's contrast row.
        generator_started = time.perf_counter()
        warmups = [
            loadgen.Request(0.0, i % 2, "hot", f"/v1/artifact/{name}")
            for i, name in enumerate(HOT_ARTIFACTS)
        ]
        self.drive(warmups, keep_bodies=True)
        self.etags = {r.target: r.etag for r in warmups}
        self.hot_digests = {r.target: r.digest for r in warmups}
        contrast = json.loads(warmups[0].body)
        self.countries = sorted(row["country"] for row in contrast["rows"])
        self.drive([
            loadgen.Request(0.0, i % 2, "contrast", f"/v1/contrast/{cc}")
            for i, cc in enumerate(self.countries)
        ])
        self.setup_s = server_setup + time.perf_counter() - generator_started

    def drive(self, requests: list[loadgen.Request], **kwargs) -> None:
        loadgen.drive(self.socks, requests, **kwargs)
        self.run.attempted += len(requests)
        for request in requests:
            if request.status != request.expect:
                self.run.fail(
                    f"{request.target}: HTTP {request.status}, expected {request.expect}"
                )

    def stats(self) -> dict:
        """The server's CPU seconds, and its slices since the last call."""
        self.server.send("stats")
        return self.server.event()

    def close(self, check: bool) -> None:
        """Check the served hot bodies against artifact_document(), then stop."""
        if self.closed:
            return
        self.closed = True
        if check:
            names = [target.rsplit("/", 1)[1] for target in self.hot_digests]
            self.server.send("check " + json.dumps(names))
            expected = self.server.event()["digests"]
            self.run.attempted += len(names)
            for target, digest in self.hot_digests.items():
                if expected[target.rsplit("/", 1)[1]] != digest:
                    self.run.fail(f"{target}: served body differs from artifact_document()")
        for sock in self.socks:
            sock.close()
        self.server.send("quit")
        self.server.finish()


def rounds(rng: random.Random, values) -> Iterator:
    """Endless rounds over ``values``, each round in a fresh seeded order."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def schedule(session: ServeSession, seed: int, seconds: float) -> list[loadgen.Request]:
    """The open-loop request schedule: fixed rate, equal shares, seeded keys.

    Every six consecutive requests hold one of each kind, in a seeded
    order, and each kind's keys come in seeded rounds over their space.
    So every seed sends the same requests in number and spread; the
    seed changes their order and which keys meet.
    """
    rng = random.Random(seed)
    hot = [f"/v1/artifact/{name}" for name in HOT_ARTIFACTS]
    keys = {
        "hot": rounds(rng, hot),
        "revalidate": rounds(rng, hot),
        "contrast": rounds(rng, session.countries),
        "since": rounds(rng, range(EVENTS_SINCE)),
        "country": rounds(rng, [None, *session.countries]),
        "severity": rounds(rng, SEVERITIES),
    }
    kinds: list[str] = []
    for _ in range(int(seconds * SERVE_RATE) // len(SERVE_KINDS)):
        block = list(SERVE_KINDS)
        rng.shuffle(block)
        kinds.extend(block)
    requests = []
    for index, kind in enumerate(kinds):
        due, conn = index / SERVE_RATE, index % 2
        if kind == "hot":
            requests.append(loadgen.Request(due, conn, kind, next(keys["hot"])))
        elif kind == "revalidate":
            target = next(keys["revalidate"])
            requests.append(loadgen.Request(
                due, conn, kind, target,
                headers=(("If-None-Match", session.etags[target]),), expect=304,
            ))
        elif kind == "events":
            query = f"since={next(keys['since'])}"
            country = next(keys["country"])
            if country is not None:
                query += f"&country={country}"
            query += f"&min_severity={next(keys['severity'])}"
            requests.append(loadgen.Request(due, conn, kind, f"/v1/events?{query}"))
        elif kind == "contrast":
            target = f"/v1/contrast/{next(keys['contrast'])}"
            requests.append(loadgen.Request(due, conn, kind, target))
        else:
            requests.append(loadgen.Request(due, conn, kind, f"/{kind}"))
    return requests


def check_bodies(
    run: Run, session: ServeSession, requests: list[loadgen.Request], seen: dict[str, str]
) -> None:
    """Same target, same body: ``seen`` keeps one digest per cacheable target."""
    for request in requests:
        if request.kind not in ("hot", "events", "contrast") or request.status != 200:
            continue
        if seen.setdefault(request.target, request.digest) != request.digest:
            run.fail(f"{request.target}: body changed between responses")
    for target, digest in session.hot_digests.items():
        if seen.setdefault(target, digest) != digest:
            run.fail(f"{target}: body differs from the set-up response")


def serve_window(run: Run, session: ServeSession) -> tuple[list[loadgen.Request], float, list]:
    """The open-loop window: (requests, server CPU seconds, slices).

    The server runs the slices in the window's idle gaps; their CPU time
    is taken out of its CPU time.
    """
    requests = schedule(session, run.args.seed, run.args.seconds)
    before = session.stats()
    session.drive(requests, on_idle=lambda: session.server.send("slice"))
    after = session.stats()
    cpu = after["cpu"] - before["cpu"] - after["slice_cpu"]
    run.slices.extend(after["slices"])
    return requests, cpu, after["slices"]


def kind_medians(requests: list[loadgen.Request]) -> dict[str, float]:
    """Median latency, in seconds, of each request kind."""
    return {
        kind: statistics.median(r.latency for r in requests if r.kind == kind)
        for kind in SERVE_KINDS
    }


def scrape(session: ServeSession) -> dict[tuple[str, str], float]:
    from worker import prometheus_samples

    request = loadgen.Request(0.0, 0, "metrics", "/metrics")
    session.drive([request], keep_bodies=True)
    return prometheus_samples(request.body.decode("utf-8"))


def serve_census(run: Run, seen: dict[str, str]) -> tuple[dict, float]:
    """Per-endpoint serving figures on a fresh server, from HTTP and /metrics.

    ``seen`` holds the body digests the census responses must match.
    Returns the calibrated figures and the window's calibrated server CPU.
    """
    session = ServeSession(run)
    try:
        before = scrape(session)
        requests, cpu, slices = serve_window(run, session)
        after = scrape(session)
        check_bodies(run, session, requests, seen)
    finally:
        session.close(check=True)

    def delta(name: str) -> float:
        return sum(v - before.get(key, 0.0) for key, v in after.items() if key[0] == name)

    ms = 1000.0 * calib.factor(slices)  # calibrated milliseconds per second
    m = {f"serve.p50_ms.{kind}": p50 * ms for kind, p50 in kind_medians(requests).items()}
    m["serve.p99_ms"] = loadgen.percentile([r.latency for r in requests], 0.99) * ms
    m["serve.late_p99_ms"] = loadgen.percentile([r.late for r in requests], 0.99) * ms
    hits = delta("serve_hot_cache_hits_total")
    misses = delta("serve_hot_cache_misses_total")
    m["serve.hot_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # The scrape after the window counts itself; the one before does not.
    m["serve.requests"] = delta("serve_requests_total") - 1
    m["serve.cpu_ms_per_req"] = cpu * ms / len(requests)
    return m, cpu * ms / 1000.0


def run_serve(run: Run) -> tuple[dict, dict, dict | None]:
    """serve_mixed: (raw, calibrated, per-layer) figures."""
    census = bool(run.args.trace)
    samples = 1 if census else SETUP_SAMPLES
    setups = []
    for index in range(samples):
        session = ServeSession(run)
        setups.append((session.setup_s, session.setup_slices))
        if index < samples - 1:
            session.close(check=False)
    try:
        requests, cpu, slices = serve_window(run, session)
        check_bodies(run, session, requests, run.outputs)
    finally:
        session.close(check=True)
    factor = calib.factor(slices)
    raw = {
        # The schedule fixes the window's length, so its wall time is not
        # calibrated: it moves only if the server falls behind by the end.
        "wall_s": max(r.done for r in requests),
        "cpu_s": cpu,
        # The mean of the kinds' medians.  Half the requests are of the
        # three fast kinds, so the overall median sits on the boundary
        # between them and the slow ones and jumps from run to run.
        "p50_ms": statistics.mean(kind_medians(requests).values()) * 1000.0,
        "peak_rss_mb": session.server.peak_rss_mb,
    }
    calibrated = {
        "wall_s": raw["wall_s"],
        "cpu_s": cpu * factor,
        "p50_ms": raw["p50_ms"] * factor,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw["setup_s"], calibrated["setup_s"] = setup_figures(setups)
    raw["late_p99_ms"] = loadgen.percentile([r.late for r in requests], 0.99) * 1000.0
    layers = None
    if census:
        layers = batch_census(run)
        serving, census_cpu = serve_census(run, run.outputs)
        layers.update(serving)
        layers["trace.overhead_s"] = census_cpu - calibrated["cpu_s"]
    return raw, calibrated, layers


# -- metrics and the report ------------------------------------------------------------

#: Gated metrics: name -> unit.  Times are seconds (or ms) at the
#: reference speed; peak RSS is not calibrated.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "p50_ms": "ms",
}

LAYERS = ("traffic", "census", "cloud", "dependencies", "observatory", "sentinel")
SCENARIOS = (
    "ispv6", "dualstack-Amazon", "nat64-US", "block-US-0.6", "accelerate-3",
    "hetimer-300", "nat64-US_accelerate-3", "dualstack-Amazon_ispv6",
)

#: Per-layer metrics: name -> unit.  Times and rates are at the
#: reference speed; ``host.raw.*`` are as measured.
PER_LAYER: dict[str, str] = {
    "traffic.build_s": "s",
    **{f"traffic.gen_s.{r}": "s" for r in "ABCDE"},
    "traffic.flows": "count",
    "traffic.us_per_flow": "us",
    "flowmon.frame_s": "s",
    "flowmon.frame_rows": "count",
    "census.build_s": "s",
    "census.ecosystem_s": "s",
    "census.crawl_s": "s",
    "census.sites_per_s": "1/s",
    "cloud.build_s": "s",
    "deps.build_s": "s",
    "observatory.build_s": "s",
    "observatory.probes": "count",
    "observatory.probes_per_s": "1/s",
    "sentinel.build_s": "s",
    "sentinel.points": "count",
    "sentinel.events": "count",
    "artifacts.render_s": "s",
    **{
        f"artifact.{a}_s": "s"
        for a in ("longitudinal", "fig2", "fig13", "fig14", "fig15")
    },
    "artifacts.bytes": "B",
    **{f"whatif.scenario_s.{s}": "s" for s in SCENARIOS},
    "whatif.scenarios_per_s": "1/s",
    **{
        f"whatif.rebuilds.{layer}": "count"
        for layer in ("traffic", "census", "cloud", "dependencies", "observatory")
    },
    **{f"store.write_s.{layer}": "s" for layer in LAYERS},
    **{f"store.read_s.{layer}": "s" for layer in LAYERS},
    "store.bytes": "B",
    "store.write_mb_per_s": "MiB/s",
    "store.read_mb_per_s": "MiB/s",
    "store.hit_ratio": "ratio",
    "store.retries": "count",
    **{f"serve.p50_ms.{kind}": "ms" for kind in SERVE_KINDS},
    "serve.p99_ms": "ms",
    "serve.late_p99_ms": "ms",
    "serve.hot_hit_ratio": "ratio",
    "serve.cpu_ms_per_req": "ms",
    "serve.requests": "count",
    "trace.overhead_s": "s",
    "host.cal_ms": "ms",
    "host.raw.setup_s": "s",
    "host.raw.wall_s": "s",
    "host.raw.cpu_s": "s",
    "host.raw.p50_ms": "ms",
}


def outputs_digest(outputs: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(sorted(outputs.items())).encode()).hexdigest()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="smoke")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Byte-compile up front, so no timed set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    run = Run(args)
    try:
        if args.workload == "serve_mixed":
            raw, gated, layers = run_serve(run)
        else:
            raw, gated, layers = run_batch(run)
            if layers is not None:
                layers.update(serve_census(run, {})[0])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    cal_ms = statistics.mean(run.slices) * 1000.0
    print(
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale} nproc={os.cpu_count()} "
        f"python={platform.python_version()} ref_slice_ms={calib.REFERENCE_SLICE_MS} "
        f"host.cal_ms={cal_ms:.4f} slices={len(run.slices)}"
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:12s} {gated[name]:12.4f} {unit:4s} (raw {raw[name]:.4f})")
    if args.workload == "serve_mixed":
        print(f"  generator late_p99_ms {raw['late_p99_ms']:.4f} (raw)")
    else:
        print(f"  passes {raw['passes']}")
    metrics, units = gated, END_TO_END
    if layers is not None:
        layers["host.cal_ms"] = cal_ms
        for name in ("setup_s", "wall_s", "cpu_s", "p50_ms"):
            layers[f"host.raw.{name}"] = raw[name]
        metrics = {name: float(layers[name]) for name in PER_LAYER}
        units = PER_LAYER
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.4f} {units[name]}")
    for error in run.errors[:10]:
        print(f"  failed: {error}")
    print(f"outputs_digest {outputs_digest(run.outputs)}")
    print(f"failed/attempted {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
