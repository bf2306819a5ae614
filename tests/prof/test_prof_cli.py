"""``repro prof``: determinism, exports, usage errors.

The determinism test runs the profiler in two *fresh interpreters*
(subprocesses): within one process a second run would see already-
imported modules and legitimately profile fewer import frames, which is
exactly the kind of run-to-run noise the timing-free projection is
supposed to survive -- but only across runs that did the same work.
``--parallel 0`` is load-bearing too: pool workers make the parent's
call counts scheduler-dependent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import clear_caches
from repro.prof import disable_profiling, tree_projection
from repro.telemetry import reset_trace

REPO = Path(__file__).parents[2]

SCALE = ["--days", "3", "--sites", "60", "--probe-targets", "40",
         "--parallel", "0"]


@pytest.fixture(autouse=True)
def _fresh():
    disable_profiling()
    reset_trace()
    clear_caches()
    yield
    disable_profiling()
    reset_trace()


def run_prof(directory, name):
    out = directory / f"{name}.json"
    env = dict(os.environ)
    # The test process imports repro via pytest's pythonpath=["src"];
    # a fresh interpreter needs the same root on its path.
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(REPO / "src"), env.get("PYTHONPATH")) if part
    )
    subprocess.run(
        [sys.executable, "-m", "repro", "prof", "contrast",
         *SCALE, "--format", "tree", "-o", str(out)],
        cwd=REPO, check=True, capture_output=True, text=True, timeout=600,
        env=env,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def tree_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("prof-cli")
    return run_prof(directory, "a"), run_prof(directory, "b")


class TestDeterminism:
    def test_two_same_seed_runs_project_identically(self, tree_runs):
        first, second = tree_runs
        assert first["count"] >= 1
        assert first["count"] == second["count"]
        for left, right in zip(first["profiles"], second["profiles"]):
            assert left["span"] == right["span"]
            assert tree_projection(left["profile"]) == tree_projection(
                right["profile"]
            ), f"call tree for {left['span']} not reproducible"

    def test_coverage_accounts_for_the_span_time(self, tree_runs):
        first, _ = tree_runs
        for profile in first["profiles"]:
            assert profile["profile"]["coverage"] >= 0.95, profile["span"]


class TestProfCli:
    def test_speedscope_export_is_valid(self, capsys):
        from repro.__main__ import main

        assert main(["prof", "contrast", *SCALE,
                     "--format", "speedscope"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        frames = document["shared"]["frames"]
        assert frames
        assert document["profiles"]
        for profile in document["profiles"]:
            assert profile["type"] == "sampled"
            assert len(profile["samples"]) == len(profile["weights"])
            assert profile["endValue"] == pytest.approx(
                sum(profile["weights"]), abs=1e-4
            )
            for stack in profile["samples"]:
                assert all(0 <= index < len(frames) for index in stack)

    def test_memory_flag_attaches_build_peaks(self, capsys):
        from repro.__main__ import main

        assert main(["prof", "contrast", *SCALE, "--memory",
                     "--spans", "build:*"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] >= 1
        assert any(
            profile["peak_bytes"] and profile["peak_bytes"] > 0
            for profile in document["profiles"]
        )

    def test_unknown_artifact_is_a_usage_error(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["prof", "nope"])
        assert excinfo.value.code == 2

    def test_empty_pattern_list_is_a_usage_error(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["prof", "contrast", "--spans", ","])
