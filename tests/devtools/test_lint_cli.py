"""CLI contract: exit codes, JSON shape, rule selection."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint.cli import main

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
        for rule_id in ("REP000", "REP001", "REP003", "REP006", "REP007", "REP008"):
            assert rule_id in out

    def test_fix_hints_append_hint_lines(self, tmp_path, capsys):
        main(["--fix-hints", str(make_dirty_tree(tmp_path))])
        assert "hint:" in capsys.readouterr().out


class TestJsonFormat:
    def test_json_document_shape(self, tmp_path, capsys):
        code = main(["--format", "json", str(make_dirty_tree(tmp_path))])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["total"] == 1
        assert document["elapsed_s"] >= 0
        assert "REP001" in document["rules"]
        (violation,) = document["violations"]
        assert violation["rule"] == "REP001"
        assert violation["path"] == "mod.py"
        assert violation["line"] == 3

    def test_json_clean_run(self, tmp_path, capsys):
        assert main(["--format", "json", str(make_clean_tree(tmp_path))]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["violations"] == []
