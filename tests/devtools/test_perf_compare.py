"""The CI perf gate's decision rule, driven with synthetic perfbench results.

``.github/scripts/perf_compare.py`` is a script, not a package module, so
it is loaded by path.  Its bounds come from the real ``BENCHMARK.json``.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).parents[2]
SPEC = importlib.util.spec_from_file_location(
    "perf_compare", REPO / ".github" / "scripts" / "perf_compare.py"
)
perf_compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(perf_compare)

CONTRACT = perf_compare.load_contract(REPO)
WORKLOAD = CONTRACT["workloads"][0]


def result(values=None, correct=True, failed=0, attempted=40):
    """One run's result line: each gated metric at 1.0 unless ``values`` says."""
    values = values or {}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values.get(metric["name"], 1.0), "unit": "s"}
            for metric in CONTRACT["metrics"]
        },
    }


def sides(head=None, contract=CONTRACT):
    """Identical base and head runs, with ``head[pair]`` overriding a head run."""
    results = {
        side: {
            workload: [result() for _ in range(perf_compare.PAIRS)]
            for workload in contract["workloads"]
        }
        for side in perf_compare.SIDES
    }
    for pair, run in (head or {}).items():
        results["head"][WORKLOAD][pair] = run
    return results


def failing_rows(rows):
    return [(row["workload"], row["metric"]) for row in rows if not row["ok"]]


def test_contract_reads_the_gated_metrics():
    assert perf_compare.PAIRS == 3
    assert CONTRACT["run_seconds"] > 0
    assert {metric["name"] for metric in CONTRACT["metrics"]} >= {"wall_s", "cpu_s"}
    assert all(metric["bound"] > 0 for metric in CONTRACT["metrics"])


def test_identical_sides_pass():
    rows, failures = perf_compare.decide(CONTRACT, sides())
    assert failures == []
    assert len(rows) == len(CONTRACT["workloads"]) * len(CONTRACT["metrics"])
    assert all(row["median"] == 0.0 for row in rows)


def test_slowdown_in_every_pair_fails_exactly_its_row():
    slow = {pair: result({"wall_s": 1.3}) for pair in range(perf_compare.PAIRS)}
    rows, failures = perf_compare.decide(CONTRACT, sides(slow))
    assert failing_rows(rows) == [(WORKLOAD, "wall_s")]
    assert len(failures) == 1 and "wall_s" in failures[0]
    row = next(row for row in rows if row["metric"] == "wall_s" and row["workload"] == WORKLOAD)
    assert row["median"] == pytest.approx(0.3)
    assert row["head"] == pytest.approx(1.3)


def test_one_slow_pair_passes_on_the_median():
    rows, failures = perf_compare.decide(CONTRACT, sides({1: result({"wall_s": 1.3})}))
    assert failures == []
    row = next(row for row in rows if row["metric"] == "wall_s" and row["workload"] == WORKLOAD)
    assert max(row["changes"]) == pytest.approx(0.3)
    assert row["median"] == 0.0


def test_higher_is_better_metric_fails_when_it_falls():
    contract = {
        **CONTRACT,
        "metrics": [*CONTRACT["metrics"], {"name": "rps", "better": "higher", "bound": 0.1}],
    }
    results = sides(contract=contract)
    for side in perf_compare.SIDES:
        for runs in results[side].values():
            for run in runs:
                run["metrics"]["rps"] = {"value": 100.0, "unit": "1/s"}
    for run in results["head"][WORKLOAD]:
        run["metrics"]["rps"]["value"] = 80.0
    rows, failures = perf_compare.decide(contract, results)
    assert failing_rows(rows) == [(WORKLOAD, "rps")]
    for run in results["head"][WORKLOAD]:
        run["metrics"]["rps"]["value"] = 125.0
    rows, failures = perf_compare.decide(contract, results)
    assert failures == []


def test_a_higher_failed_share_on_head_fails_and_an_equal_one_passes():
    worse = sides({0: result(failed=1)})
    _, failures = perf_compare.decide(CONTRACT, worse)
    assert len(failures) == 1 and "failed/attempted 1/120" in failures[0]
    equal = sides({0: result(failed=1)})
    equal["base"][WORKLOAD][2] = result(failed=1)
    assert perf_compare.decide(CONTRACT, equal)[1] == []


def test_incorrect_head_fails():
    _, failures = perf_compare.decide(CONTRACT, sides({2: result(correct=False)}))
    assert failures == [f"head {WORKLOAD} seed 2: correct is false"]


def test_a_run_without_a_result_line_fails_and_names_its_side():
    results = sides()
    results["base"][WORKLOAD][1] = None
    rows, failures = perf_compare.decide(CONTRACT, results)
    assert failures == [
        f"base {WORKLOAD} seed 1: the run failed or printed no result line"
    ]
    assert WORKLOAD not in {row["workload"] for row in rows}


def test_run_takes_the_last_stdout_line_and_none_on_a_failed_run(tmp_path, capsys):
    stub = tmp_path / "perfbench" / "run.py"
    stub.parent.mkdir()
    stub.write_text(
        "import json, sys\n"
        "print('report')\n"
        "print('outputs_digest abc')\n"
        "print(json.dumps({'argv': sys.argv[1:]}))\n"
        "sys.exit(int(sys.argv[4]))\n"
    )
    result = perf_compare.run(tmp_path, "head", WORKLOAD, 0, 10)
    assert result == {
        "argv": ["--workload", WORKLOAD, "--seed", "0", "--seconds", "10", "--trace", "0"]
    }
    assert f"head {WORKLOAD} seed=0 outputs_digest=abc " in capsys.readouterr().out
    assert perf_compare.run(tmp_path, "base", WORKLOAD, 1, 10) is None
    assert f"base {WORKLOAD} seed=1 exit 1, no result line" in capsys.readouterr().out
