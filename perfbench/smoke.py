"""Smoke test: every workload, at tiny scale, prints every named metric.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py     # the same checks under pytest

Runs each workload of BENCHMARK.json untraced and traced at ``--scale
tiny``, and checks that the last line of output carries exactly the
metrics BENCHMARK.json names, each with its unit, and that no operation
failed.  It also checks that the benchmark refuses to run, printing no
result, where the program is missing.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


def test_end_to_end_metrics() -> None:
    for workload in WORKLOADS:
        check(workload, 0)


def test_per_layer_metrics() -> None:
    for workload in WORKLOADS:
        check(workload, 1)


def test_refuses_without_program() -> None:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_refuses_without_program, test_end_to_end_metrics, test_per_layer_metrics):
        test()
        print(f"ok  {test.__name__}")
