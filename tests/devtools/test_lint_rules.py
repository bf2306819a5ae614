"""Fixture-driven coverage: one flagging and one passing corpus per rule.

Directory fixtures (rep003_pass, rep006_*, rep007_*) are linted as
directories so their relpaths (``store/serialize.py``, ``core/client.py``,
``serve/handlers.py``) engage the rules' path scoping exactly as the real
tree does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import WAIVER_RULE_ID, default_rules, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule id, fixture path relative to FIXTURES, expected violation count).
FLAG_CASES = [
    ("REP001", "rep001_flag.py", 10),
    ("REP003", "rep003_flag.py", 6),
    ("REP006", "rep006_flag", 4),
    ("REP007", "rep007_flag", 3),
    ("REP008", "rep008_flag.py", 3),
    ("REP009", "rep009_flag.py", 4),
    ("REP011", "rep011_flag", 3),
    ("REP012", "rep012_flag.py", 3),
]

PASS_CASES = [
    ("REP001", "rep001_pass.py"),
    ("REP003", "rep003_pass"),
    ("REP006", "rep006_pass"),
    ("REP007", "rep007_pass"),
    ("REP008", "rep008_pass.py"),
    ("REP009", "rep009_pass"),
    ("REP011", "rep011_pass"),
    ("REP012", "rep012_pass"),
]


def run(fixture: str, rule: str):
    return lint_paths([FIXTURES / fixture], default_rules(), select=[rule])


@pytest.mark.parametrize(("rule", "fixture", "expected"), FLAG_CASES)
def test_flag_fixture_trips_its_rule(rule, fixture, expected):
    violations = run(fixture, rule)
    assert [v.rule for v in violations] == [rule] * expected
    for violation in violations:
        assert violation.line >= 1
        assert violation.path.endswith(".py")
        assert violation.message


@pytest.mark.parametrize(("rule", "fixture"), PASS_CASES)
def test_pass_fixture_stays_clean(rule, fixture):
    assert run(fixture, rule) == []


def test_unjustified_waiver_flags_rep000_and_keeps_the_violation():
    violations = lint_paths([FIXTURES / "rep000_flag.py"], default_rules())
    assert sorted(v.rule for v in violations) == [WAIVER_RULE_ID, "REP001"]


def test_every_rule_carries_a_fix_hint():
    for rule in default_rules():
        assert rule.id.startswith("REP")
        assert rule.title
        assert rule.hint
    assert [r.id for r in default_rules()] == sorted(r.id for r in default_rules())


def test_rules_are_fresh_instances_per_run():
    first, second = default_rules(), default_rules()
    assert all(a is not b for a, b in zip(first, second))
