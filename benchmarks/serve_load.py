"""Serving-throughput benchmark: asyncio client fan-out against repro.serve.

Starts an in-process :class:`~repro.serve.ArtifactService` server on an
ephemeral port, pre-warms the measured artifact set (so the benchmark
exercises the *serving* tier, not the build pipeline), then fans
keep-alive client connections over it and records requests/sec with
p50/p99 latency -- once for full-body GETs and once for
``If-None-Match`` revalidation (the 304 path a polling tracker pays).

It prints both passes and writes no file.  The run fails when
cached-GET throughput lands under ``--min-rps`` (default
:data:`MIN_RPS`), so it is a throughput floor: CI's serve-smoke job runs
it with a relaxed floor for shared runners.  Latency under a fixed,
sub-saturating load is perfbench's ``serve_mixed`` workload.

Usage::

    python benchmarks/serve_load.py [--connections 8] [--requests 4000]
        [--days 7] [--sites 250] [--probe-targets 120]
        [--paths /v1/artifact/contrast,/v1/artifact/obs_availability]
        [--store DIR] [--min-rps 1000]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.api import StudyConfig
from repro.serve import ArtifactService, start_server

DEFAULT_PATHS = (
    "/v1/artifact/contrast",
    "/v1/artifact/obs_availability",
    "/v1/artifact/table1",
)

#: Cached-GET requests/sec below which the run fails, by default.
MIN_RPS = 1000.0


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
    service.warm(names)

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
    return {"cached_get": cached, "revalidate_304": revalidated}


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
    parser.add_argument("--min-rps", type=float, default=MIN_RPS,
                        help="fail when cached-GET rps lands below this "
                        f"(default: {MIN_RPS:g})")
    args = parser.parse_args(argv)

    if args.store:
        from repro.store import set_store

        set_store(args.store)

    paths = [p for p in args.paths.split(",") if p]
    serve_block = asyncio.run(run_benchmark(args, paths))
    cached = serve_block["cached_get"]
    revalidated = serve_block["revalidate_304"]
    print(
        f"serve-load: {cached['requests']} GETs over "
        f"{args.connections} connections -> {cached['rps']:.0f} req/s "
        f"(p50 {cached['p50_ms']:.2f} ms, p99 {cached['p99_ms']:.2f} ms)"
    )
    print(
        f"serve-load: 304 revalidation -> {revalidated['rps']:.0f} req/s "
        f"(p50 {revalidated['p50_ms']:.2f} ms, p99 {revalidated['p99_ms']:.2f} ms)"
    )
    if args.min_rps and cached["rps"] < args.min_rps:
        print(
            f"serve-load: FAILED -- {cached['rps']:.0f} req/s on cached "
            f"artifacts is under the {args.min_rps:.0f} req/s gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
