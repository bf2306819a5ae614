"""CI gate: perfbench in two checkouts, alternating pairs, one bound per metric.

Usage: ``python3 .github/scripts/perf_compare.py BASE HEAD``

BASE and HEAD are checkout paths.  The base's ``BENCHMARK.json`` is the
contract: its workloads, its ``end_to_end`` metrics (``name``,
``better``, ``bound``) and its ``run_seconds``.  Each workload gets
``PAIRS`` pairs of runs with seeds ``0..PAIRS-1``; the base runs first in
even pairs and the head first in odd ones, so a host that drifts faster
or slower over a pair favours neither side.  Every run is the checkout's
own, unmodified ``perfbench/run.py --trace 0``, started in that checkout
(perfbench puts the checkout's ``src`` on ``PYTHONPATH``); its result is
the last line of its stdout, printed with the run's ``outputs_digest``.

A pair's change is ``head/base - 1`` when lower is better and
``base/head - 1`` when higher is better.  The gate fails when the median
of a metric's paired changes exceeds that metric's bound, when a run
fails or prints no result line, when a head run reports ``correct:
false``, or when the head's ``failed/attempted`` over a workload's runs
exceeds the base's.  Exit status is 1 on any failure.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Pairs of runs per workload; pair ``i`` uses seed ``i``.
PAIRS = 3
SIDES = ("base", "head")


def load_contract(checkout: Path) -> dict:
    """The workloads, gated metrics and run length of a ``BENCHMARK.json``."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {
        "workloads": [workload["name"] for workload in benchmark["workloads"]],
        "metrics": [
            {key: metric[key] for key in ("name", "better", "bound")}
            for metric in benchmark["end_to_end"]
        ],
        "run_seconds": benchmark["run_seconds"],
    }


def paired_change(metric: dict, base: float, head: float) -> float:
    """The head's change against the base; positive is worse."""
    return head / base - 1.0 if metric["better"] == "lower" else base / head - 1.0


def decide(contract: dict, results: dict) -> tuple[list[dict], list[str]]:
    """The gate's rows and failures.

    ``results[side][workload]`` lists that side's ``PAIRS`` result dicts
    in seed order, with ``None`` for a run that printed no result.  A
    workload with such a run gets no metric rows: its pairs are not
    complete.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for workload in contract["workloads"]:
        runs = {side: results[side][workload] for side in SIDES}
        missing = [
            f"{side} {workload} seed {seed}: the run failed or printed no result line"
            for side in SIDES
            for seed, result in enumerate(runs[side])
            if result is None
        ]
        if missing:
            failures.extend(missing)
            continue
        failures.extend(
            f"head {workload} seed {seed}: correct is false"
            for seed, result in enumerate(runs["head"])
            if not result["correct"]
        )
        failed = {side: sum(result["failed"] for result in runs[side]) for side in SIDES}
        attempted = {side: sum(result["attempted"] for result in runs[side]) for side in SIDES}
        if failed["head"] * attempted["base"] > failed["base"] * attempted["head"]:
            failures.append(
                f"head {workload}: failed/attempted {failed['head']}/{attempted['head']} "
                f"exceeds the base's {failed['base']}/{attempted['base']}"
            )
        for metric in contract["metrics"]:
            values = {
                side: [result["metrics"][metric["name"]]["value"] for result in runs[side]]
                for side in SIDES
            }
            changes = [
                paired_change(metric, base, head)
                for base, head in zip(values["base"], values["head"])
            ]
            median = statistics.median(changes)
            ok = median <= metric["bound"]
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "base": statistics.median(values["base"]),
                "head": statistics.median(values["head"]),
                "changes": changes,
                "median": median,
                "bound": metric["bound"],
                "ok": ok,
            })
            if not ok:
                failures.append(
                    f"{workload} {metric['name']}: median paired change "
                    f"{median:+.1%} exceeds the bound {metric['bound']:.0%}"
                )
    return rows, failures


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':16s} {'metric':12s} {'base':>10s} {'head':>10s}  "
        f"{'paired changes':24s} {'median':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        changes = " ".join(f"{change:+7.1%}" for change in row["changes"])
        lines.append(
            f"{row['workload']:16s} {row['metric']:12s} {row['base']:10.4g} "
            f"{row['head']:10.4g}  {changes:24s} {row['median']:+7.1%} "
            f"{row['bound']:6.0%}  {'ok' if row['ok'] else 'FAIL'}"
        )
    return "\n".join(lines)


def run(checkout: Path, side: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench run; its result dict, or ``None`` when it printed none."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    tag = f"{side} {workload} seed={seed}"
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print(f"{tag} exit {proc.returncode}, no result line", flush=True)
        print(proc.stderr[-3000:], file=sys.stderr, flush=True)
        return None
    # Printed, not gated: a change may re-bless its outputs on purpose.
    digest = next(
        (line.split()[-1] for line in lines if line.startswith("outputs_digest ")), "-"
    )
    print(f"{tag} outputs_digest={digest} {lines[-1]}", flush=True)
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (Path(path).resolve() for path in argv)))
    contract = load_contract(checkouts["base"])
    results = {side: {workload: [] for workload in contract["workloads"]} for side in SIDES}
    for workload in contract["workloads"]:
        for seed in range(PAIRS):
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                results[side][workload].append(
                    run(checkouts[side], side, workload, seed, contract["run_seconds"])
                )
    rows, failures = decide(contract, results)
    print(render(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
