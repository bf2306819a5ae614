"""Engine mechanics: waivers, parse failures, selection."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import WAIVER_RULE_ID, default_rules, lint_paths
from repro.devtools.lint.engine import collect_python_files


def lint_source(tmp_path: Path, source: str, *, name: str = "mod.py", select=None):
    file = tmp_path / name
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], default_rules(), select=select)


class TestWaivers:
    def test_same_line_waiver_with_reason_suppresses(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time

            STAMP = time.time()  # replint: allow[REP001] telemetry only, never artifact data
            """,
        )
        assert violations == []

    def test_standalone_comment_waiver_covers_next_line(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time

            # replint: allow[REP001] telemetry only, never artifact data
            STAMP = time.time()
            """,
        )
        assert violations == []

    def test_waiver_without_reason_is_rep000_and_does_not_suppress(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time

            STAMP = time.time()  # replint: allow[REP001]
            """,
        )
        rules = sorted(v.rule for v in violations)
        assert rules == [WAIVER_RULE_ID, "REP001"]

    def test_waiver_for_a_different_rule_does_not_suppress(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time

            STAMP = time.time()  # replint: allow[REP008] wrong rule entirely
            """,
        )
        assert [v.rule for v in violations] == ["REP001"]

    def test_multi_rule_waiver_parses(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time
            import random

            # replint: allow[REP001, REP008] both stamp calls are startup telemetry
            PAIR = (time.time(), random.random())
            """,
        )
        assert violations == []


class TestParseFailures:
    def test_syntax_error_becomes_rep999(self, tmp_path):
        violations = lint_source(tmp_path, "def broken(:\n    pass\n")
        assert [v.rule for v in violations] == ["REP999"]
        assert "could not parse" in violations[0].message

    def test_rep999_survives_rule_selection(self, tmp_path):
        violations = lint_source(tmp_path, "def broken(:\n", select=["REP008"])
        assert [v.rule for v in violations] == ["REP999"]


class TestCollection:
    def test_directory_roots_yield_posix_relpaths(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("import time\nT = time.time()\n")
        violations = lint_paths([tmp_path], default_rules())
        assert violations[0].path == "pkg/mod.py"

    def test_single_file_argument(self, tmp_path):
        file = tmp_path / "solo.py"
        file.write_text("import time\nT = time.time()\n")
        violations = lint_paths([file], default_rules())
        assert [v.path for v in violations] == ["solo.py"]

    def test_non_python_path_rejected(self, tmp_path):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        with pytest.raises(FileNotFoundError):
            collect_python_files([stray])

    def test_select_filters_rules(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """\
            import time

            T = time.time()
            NAMES = [n for n in {"a", "b"}]
            """,
            select=["REP008"],
        )
        assert [v.rule for v in violations] == ["REP008"]
