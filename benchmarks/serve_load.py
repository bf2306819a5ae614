"""Serving-throughput benchmark: asyncio client fan-out against repro.serve.

Starts an in-process :class:`~repro.serve.ArtifactService` server on an
ephemeral port, pre-warms the measured artifact set (so the benchmark
exercises the *serving* tier, not the build pipeline), then fans
keep-alive client connections over it and records requests/sec with
p50/p99 latency -- once for full-body GETs and once for
``If-None-Match`` revalidation (the 304 path a polling tracker pays).

Results merge into ``benchmarks/results/BENCH_results.json`` under a
``"serve"`` block (the file the perf harnesses already share), and the
run fails when cached-GET throughput lands under ``--min-rps`` -- the
committed ``SMOKE_REFERENCE["serve_min_rps"]`` gate from
``perf_smoke.py`` by default.

Usage::

    python benchmarks/serve_load.py [--connections 8] [--requests 4000]
        [--days 7] [--sites 250] [--probe-targets 120]
        [--paths /v1/artifact/contrast,/v1/artifact/obs_availability]
        [--store DIR] [--min-rps 1000]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.api import StudyConfig
from repro.serve import ArtifactService, start_server

DEFAULT_PATHS = (
    "/v1/artifact/contrast",
    "/v1/artifact/obs_availability",
    "/v1/artifact/table1",
)


async def _client(
    port: int,
    paths: list[str],
    count: int,
    latencies: list[float],
    revalidate: str | None = None,
) -> None:
    """One keep-alive connection issuing ``count`` GETs round-robin."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for index in range(count):
            target = paths[index % len(paths)]
            lines = [f"GET {target} HTTP/1.1", "Host: bench"]
            if revalidate is not None:
                lines.append(f"If-None-Match: {revalidate}")
            start = time.perf_counter()
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
            status = int(head.split(" ", 2)[1])
            length = 0
            for line in head.split("\r\n"):
                if line.lower().startswith("content-length:"):
                    length = int(line.partition(":")[2])
            if length:
                await reader.readexactly(length)
            latencies.append(time.perf_counter() - start)
            expected = 304 if revalidate == "*" else 200
            if status != expected:
                raise RuntimeError(f"{target}: HTTP {status}, expected {expected}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


async def _measure(
    port: int, paths: list[str], connections: int, total: int, revalidate: str | None
) -> dict:
    latencies: list[float] = []
    per_connection = max(1, total // connections)
    start = time.perf_counter()
    await asyncio.gather(*[
        _client(port, paths, per_connection, latencies, revalidate)
        for _ in range(connections)
    ])
    elapsed = time.perf_counter() - start
    latencies.sort()
    return {
        "requests": len(latencies),
        "wall_s": round(elapsed, 4),
        "rps": round(len(latencies) / elapsed, 1) if elapsed > 0 else None,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
    }


async def run_benchmark(args: argparse.Namespace, paths: list[str]) -> dict:
    config = StudyConfig(
        days=args.days,
        sites=args.sites,
        probe_targets=args.probe_targets,
        parallel=False,
    )
    service = ArtifactService(config)
    # Warm synchronously: the measurement is of the serving tier.
    names = [p.rsplit("/", 1)[1] for p in paths if p.startswith("/v1/artifact/")]
    warm_start = time.perf_counter()
    service.warm(names)
    warm_s = time.perf_counter() - warm_start

    server = await start_server(service, "127.0.0.1", 0, warm=False)
    port = server.sockets[0].getsockname()[1]
    try:
        cached = await _measure(
            port, paths, args.connections, args.requests, revalidate=None
        )
        revalidated = await _measure(
            port, paths, args.connections, args.requests, revalidate="*"
        )
    finally:
        server.close()
        await server.wait_closed()
    return {
        "connections": args.connections,
        "paths": paths,
        "config": {"days": args.days, "sites": args.sites,
                   "probe_targets": args.probe_targets},
        "warm_s": round(warm_s, 3),
        "cached_get": cached,
        "revalidate_304": revalidated,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--requests", type=int, default=4000,
                        help="total requests per measurement pass")
    parser.add_argument("--days", type=int, default=7)
    parser.add_argument("--sites", type=int, default=250)
    parser.add_argument("--probe-targets", type=int, default=120)
    parser.add_argument("--paths", default=",".join(DEFAULT_PATHS),
                        help="comma-separated request targets")
    parser.add_argument("--store", default=None,
                        help="warehouse directory (default: $REPRO_STORE); "
                        "warming loads from it instead of building")
    parser.add_argument("--min-rps", type=float, default=None,
                        help="fail when cached-GET rps lands below this "
                        "(default: the committed SMOKE_REFERENCE serve gate)")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_results.json",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_history.jsonl",
        help="append this run's throughput/latency series here "
        "(the series 'repro bench history' scans; rps phases regress "
        "downward)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history append (throwaway experiments)",
    )
    args = parser.parse_args(argv)

    if args.store:
        from repro.store import set_store

        set_store(args.store)

    paths = [p for p in args.paths.split(",") if p]
    serve_block = asyncio.run(run_benchmark(args, paths))

    # Merge into the shared results file (perf_smoke writes the
    # envelope; this benchmark owns only the "serve" block).
    payload: dict = {}
    if args.output.is_file():
        try:
            payload = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            payload = {}
    if not payload:
        payload = {"schema": 1, "phases": {}}
    payload["serve"] = serve_block
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    if not args.no_history:
        from datetime import datetime, timezone

        from repro.prof import append_history, history_record

        cached_block = serve_block["cached_get"]
        revalidated_block = serve_block["revalidate_304"]
        append_history(args.history, history_record(
            kind="serve_load",
            config={**serve_block["config"],
                    "connections": args.connections,
                    "requests": args.requests},
            phases={
                "serve:warm_s": serve_block["warm_s"],
                "serve:cached_rps": cached_block["rps"] or 0.0,
                "serve:cached_p99_ms": cached_block["p99_ms"],
                "serve:revalidate_rps": revalidated_block["rps"] or 0.0,
                "serve:revalidate_p99_ms": revalidated_block["p99_ms"],
            },
            recorded_at=datetime.now(timezone.utc).isoformat(),
        ))

    min_rps = args.min_rps
    if min_rps is None:
        # Sibling module: the script directory is on sys.path when this
        # file runs as a script, which is the only way it is run.
        from perf_smoke import SMOKE_REFERENCE

        min_rps = SMOKE_REFERENCE["serve_min_rps"]
    cached = serve_block["cached_get"]
    revalidated = serve_block["revalidate_304"]
    print(
        f"serve-load: {cached['requests']} GETs over "
        f"{serve_block['connections']} connections -> {cached['rps']:.0f} req/s "
        f"(p50 {cached['p50_ms']:.2f} ms, p99 {cached['p99_ms']:.2f} ms)"
    )
    print(
        f"serve-load: 304 revalidation -> {revalidated['rps']:.0f} req/s "
        f"(p50 {revalidated['p50_ms']:.2f} ms, p99 {revalidated['p99_ms']:.2f} ms)"
    )
    print(f"  wrote {args.output}")
    if not args.no_history:
        print(f"  appended {args.history}")
    if min_rps and cached["rps"] < min_rps:
        print(
            f"serve-load: FAILED -- {cached['rps']:.0f} req/s on cached "
            f"artifacts is under the {min_rps:.0f} req/s gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
