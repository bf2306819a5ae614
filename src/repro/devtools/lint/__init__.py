"""``replint``: the repo's AST-based invariant checker.

Public surface::

    from repro.devtools.lint import lint_repo, lint_paths, default_rules

    violations = lint_repo()            # the installed repro source tree
    violations = lint_paths([Path("src")], default_rules())

and on the command line::

    python -m repro lint
    python -m repro lint --format json --rule REP001

See :mod:`repro.devtools.lint.engine` for the rule framework and
:mod:`repro.devtools.lint.rules` for the invariants it checks.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint.engine import (
    WAIVER_RULE_ID,
    ModuleContext,
    Rule,
    Violation,
    lint_paths,
)
from repro.devtools.lint.rules import RULE_CLASSES, default_rules, rule_ids

__all__ = [
    "WAIVER_RULE_ID",
    "ModuleContext",
    "Rule",
    "RULE_CLASSES",
    "Violation",
    "default_rules",
    "default_lint_root",
    "lint_paths",
    "lint_repo",
    "rule_ids",
]


def default_lint_root() -> Path:
    """The source tree to lint by default: the parent of ``repro``.

    Linting ``src/`` (not ``src/repro/``) keeps every relpath prefixed
    ``repro/...``, so reports name files as the package does.
    """
    import repro

    return Path(repro.__file__).resolve().parent.parent


def lint_repo(
    *,
    select: list[str] | None = None,
) -> list[Violation]:
    """Run every rule over the installed ``repro`` source tree."""
    return lint_paths([default_lint_root()], default_rules(), select=select)
