"""CLI contract: exit codes, JSON shape, rule selection, baselines."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint.baseline import load_baseline, new_violations, write_baseline
from repro.devtools.lint.cli import main
from repro.devtools.lint.engine import Violation

FIXTURES = Path(__file__).parent / "fixtures"


def make_clean_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "clean"
    tree.mkdir()
    (tree / "mod.py").write_text('"""Nothing to flag."""\n\nANSWER = 42\n')
    return tree


def make_dirty_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "dirty"
    tree.mkdir()
    (tree / "mod.py").write_text("import time\n\nSTAMP = time.time()\n")
    return tree


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        assert main([str(make_clean_tree(tmp_path))]) == 0
        assert "0 new violation(s)" in capsys.readouterr().err

    def test_violations_exit_one(self, tmp_path, capsys):
        assert main([str(make_dirty_tree(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "mod.py:3" in out

    def test_fixture_corpus_exits_one(self, capsys):
        assert main([str(FIXTURES / "rep001_flag.py")]) == 1

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--rule", "REP042", str(make_clean_tree(tmp_path))])
        assert excinfo.value.code == 2


class TestRuleSelection:
    def test_rule_filter_narrows_the_run(self, capsys):
        assert main(["--rule", "REP008", str(FIXTURES / "rep001_flag.py")]) == 0
        assert main(["--rule", "REP001", str(FIXTURES / "rep001_flag.py")]) == 1

    def test_list_rules_documents_all_ids(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP000", "REP001", "REP003", "REP004",
                        "REP005", "REP006", "REP007", "REP008"):
            assert rule_id in out

    def test_fix_hints_append_hint_lines(self, tmp_path, capsys):
        main(["--fix-hints", str(make_dirty_tree(tmp_path))])
        assert "hint:" in capsys.readouterr().out


class TestJsonFormat:
    def test_json_document_shape(self, tmp_path, capsys):
        code = main(["--format", "json", str(make_dirty_tree(tmp_path))])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["total"] == document["new"] == 1
        assert document["baselined"] == 0
        assert document["elapsed_s"] >= 0
        assert "REP001" in document["rules"]
        (violation,) = document["violations"]
        assert violation["rule"] == "REP001"
        assert violation["path"] == "mod.py"
        assert violation["line"] == 3
        assert violation["fingerprint"]

    def test_json_clean_run(self, tmp_path, capsys):
        assert main(["--format", "json", str(make_clean_tree(tmp_path))]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["violations"] == []


class TestBaseline:
    def test_write_then_lint_against_baseline_exits_zero(self, tmp_path, capsys):
        tree = make_dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(tree), "--write-baseline", str(baseline)]) == 0
        assert main([str(tree), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().err

    def test_new_violation_beyond_baseline_exits_one(self, tmp_path, capsys):
        tree = make_dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(tree), "--write-baseline", str(baseline)])
        (tree / "mod.py").write_text(
            "import time\n\nSTAMP = time.time()\nOTHER = time.time_ns()\n"
        )
        assert main([str(tree), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "time_ns" in out
        assert out.count("REP001") == 1  # the old stamp stays accepted

    def test_baseline_survives_line_shift(self, tmp_path, capsys):
        tree = make_dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(tree), "--write-baseline", str(baseline)])
        (tree / "mod.py").write_text(
            '"""A new docstring shifts every line."""\n\n'
            "import time\n\n\nSTAMP = time.time()\n"
        )
        assert main([str(tree), "--baseline", str(baseline)]) == 0

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        tree = make_dirty_tree(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main([str(tree), "--baseline", str(bad)])
        assert excinfo.value.code == 2

    def test_version_mismatch_rejected(self, tmp_path):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"version": 99, "fingerprints": {}}))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            load_baseline(stale)

    def test_multiset_semantics(self, tmp_path):
        twin = Violation("REP001", "repro/x.py", 3, 0, "m", snippet="t = time.time()")
        other = Violation(
            "REP001", "repro/x.py", 9, 0, "m", snippet="u = time.time()"
        )
        baseline = tmp_path / "twins.json"
        write_baseline(baseline, [twin, twin])
        accepted = load_baseline(baseline)
        assert new_violations([twin, twin], accepted) == []
        assert new_violations([twin, twin, twin], accepted) == [twin]
        assert new_violations([twin, other], accepted) == [other]
