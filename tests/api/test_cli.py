"""Tests for the registry-backed CLI (``python -m repro``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main, parse_artifact_spec
from repro.api import registry
from repro.datasets.scenarios import SCALE_PRESETS
from repro.telemetry import counts


class TestParsing:
    def test_unknown_artifact_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1@warp=9"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1@days=soon"])

    def test_spec_parsing(self):
        assert parse_artifact_spec("fig5") == ("fig5", {})
        assert parse_artifact_spec("fig13@days=160,sites=2000") == (
            "fig13", {"days": 160, "sites": 2000}
        )

    def test_known_artifacts_accepted(self):
        args = build_parser().parse_args(["table1", "fig5@sites=100", "--days", "3"])
        assert args.artifacts == ["table1", "fig5@sites=100"]
        assert args.days == 3


class TestScalePresets:
    def test_presets_match_scenarios_calibration(self):
        assert SCALE_PRESETS["cli"].days == 28
        assert SCALE_PRESETS["cli"].sites == 1500
        assert SCALE_PRESETS["bench"].days == 154
        assert SCALE_PRESETS["bench"].sites == 4000
        assert SCALE_PRESETS["paper"].days == 273
        assert SCALE_PRESETS["paper"].sites == 100_000

    def test_default_scale_is_cli(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == "cli"
        assert args.days is None and args.sites is None

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "galactic"])

    def test_scale_expands_to_preset_config(self, capsys):
        code = main(["fig6", "--scale", "cli", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["days"] == SCALE_PRESETS["cli"].days
        assert doc["config"]["sites"] == SCALE_PRESETS["cli"].sites

    def test_explicit_flags_override_preset(self, capsys):
        code = main([
            "fig6", "--scale", "paper", "--days", "5", "--sites", "120",
            "--seed", "97", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["days"] == 5
        assert doc["config"]["sites"] == 120


class TestListCommand:
    def test_list_shows_all_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out
        assert len(registry.names()) >= 20

    def test_list_json(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert sorted(entry["name"] for entry in listed) == registry.names()

    def test_list_rejects_extra_artifacts(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "fig5"])

    def test_a_closed_stdout_pipe_ends_it_quietly(self):
        """``repro list --format json | true``: the reader is gone before
        the first write, so the command exits 1 with nothing on stderr."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(Path(__file__).parents[2] / "src"), env.get("PYTHONPATH"))
            if part
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1


class TestRunArtifacts:
    def test_json_round_trips(self, capsys):
        code = main(["fig6", "--sites", "180", "--seed", "91", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["sites"] == 180
        assert doc["artifacts"]["fig6"]["rows"]

    def test_census_built_once_for_table2_table3(self, capsys):
        before = counts("builds_total")
        code = main(["table2", "table3", "--sites", "170", "--seed", "93"])
        assert code == 0
        assert counts("builds_total")["census"] - before["census"] == 1
        assert counts("builds_total")["cloud"] - before["cloud"] == 1
        assert counts("builds_total")["traffic"] == before["traffic"]  # never touched
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out

    def test_all_shares_builds_and_emits_json_for_every_artifact(self, capsys):
        # The acceptance run, scaled down: every artifact in one JSON
        # document, with the expensive layers built at most once each.
        before = counts("builds_total")
        code = main([
            "all", "--days", "7", "--sites", "220", "--seed", "99",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["artifacts"]) == registry.names()
        for name, art in doc["artifacts"].items():
            assert art["name"] == name
            assert isinstance(art["rows"], list)
        for layer in ("traffic", "census", "cloud", "dependencies"):
            assert counts("builds_total")[layer] - before[layer] <= 1, layer

    def test_override_kept_distinct_in_json(self, capsys):
        code = main([
            "fig6", "fig6@sites=140", "--sites", "160", "--seed", "96",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # both runs survive, each attributed to the config that produced it
        assert sorted(doc["artifacts"]) == ["fig6", "fig6@sites=140"]
        assert doc["artifacts"]["fig6"]["config"]["sites"] == 160
        assert doc["artifacts"]["fig6@sites=140"]["config"]["sites"] == 140

    def test_per_artifact_override(self, capsys):
        before = counts("builds_total")
        code = main(["fig6@sites=150", "--sites", "9999", "--seed", "95"])
        assert code == 0
        # the override, not --sites, decides the census scale
        assert counts("builds_total")["census"] - before["census"] == 1
        assert "readiness by popularity" in capsys.readouterr().out

    def test_deduplicates_repeated_artifacts(self, capsys):
        code = main(["fig6", "fig6", "--sites", "220", "--seed", "99"])
        assert code == 0
        assert capsys.readouterr().out.count("Figure 6") == 1
