"""``python -m repro lint`` -- the replint command line.

Exit codes: 0 when the tree is clean, 1 when any violation exists, 2
for usage errors.  ``--rule`` narrows a run to specific invariants while
``--list-rules`` documents them all.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.devtools.lint import default_lint_root, default_rules, lint_paths
from repro.devtools.lint.engine import WAIVER_RULE_ID
from repro.devtools.lint.rules import RULE_CLASSES, rule_ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Check the repo-specific determinism, cache, and "
        "serialization invariants with the replint AST engine "
        "(--list-rules names them).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        metavar="PATH",
        help="files or directories to lint (default: the repro source tree)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="REPNNN",
        help="run only this rule id (repeatable; waiver hygiene REP000 "
        "always runs)",
    )
    parser.add_argument(
        "--fix-hints",
        action="store_true",
        help="append each rule's fix hint to text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _render_rule_table() -> str:
    lines = [f"{WAIVER_RULE_ID}  waivers must carry a justification "
             "(# replint: allow[REPNNN] reason)"]
    for cls in sorted(RULE_CLASSES, key=lambda c: c.id):
        lines.append(f"{cls.id}  {cls.title}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        print(_render_rule_table())
        return 0

    known = set(rule_ids()) | {WAIVER_RULE_ID}
    if args.rule:
        unknown = sorted(set(args.rule) - known)
        if unknown:
            parser.error(
                f"unknown rule id(s) {', '.join(unknown)}; known: "
                + ", ".join(sorted(known))
            )

    paths = [path.resolve() for path in args.paths] or [default_lint_root()]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    started = time.perf_counter()
    try:
        violations = lint_paths(paths, default_rules(), select=args.rule)
    except FileNotFoundError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # pragma: no cover
    elapsed = time.perf_counter() - started

    if args.format == "json":
        document = {
            "rules": sorted(known),
            "checked_paths": [str(path) for path in paths],
            "elapsed_s": round(elapsed, 3),
            "total": len(violations),
            "violations": [violation.to_dict() for violation in violations],
        }
        print(json.dumps(document, indent=2))
    else:
        for violation in violations:
            print(violation.format(fix_hints=args.fix_hints))
        print(f"replint: {len(violations)} new violation(s) ({elapsed:.2f}s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
