"""The replint engine: rules, violations, waivers, and the tree walk.

``replint`` is a self-contained :mod:`ast`-based checker for the
repo-specific invariants the test suite can only police after the fact
(determinism, serialization discipline, hot-path and error-handling
shape).  A :class:`Rule` sees each parsed module once, on its own
(:meth:`Rule.check`): no rule reads a second module.  Contracts that
need the running code -- the artifact registry's layers, an
intervention's ``LAYERS`` -- are checked where they are declared, at
import, not here.

Suppression is explicit and justified: a violation may be waived with

    something_flagged()  # replint: allow[REP001] why this one is fine

on the flagged line (or on a comment line directly above it).  A waiver
*without* a justification text is itself a violation (``REP000``), so
the tree can never accumulate silent exemptions.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: Matches one waiver comment:  ``# replint: allow[REP001,REP008] reason``.
_WAIVER_RE = re.compile(
    r"#\s*replint:\s*allow\[(?P<rules>[A-Z0-9, ]+)\]\s*(?P<reason>.*)$"
)

#: The engine's own rule id: malformed / unjustified waiver comments.
WAIVER_RULE_ID = "REP000"


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to a file:line."""

    rule: str
    path: str  # posix-style, relative to the lint root
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self, fix_hints: bool = False) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if fix_hints and self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class Waiver:
    """One parsed ``# replint: allow[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str


class ModuleContext:
    """One parsed source file, as the rules see it."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.waivers = _parse_waivers(source)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def violation(
        self,
        rule: "Rule | str",
        node: ast.AST | int,
        message: str,
        hint: str | None = None,
    ) -> Violation:
        """Build a violation anchored at ``node`` (or a raw line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        if isinstance(rule, str):
            rule_id, default_hint = rule, ""
        else:
            rule_id, default_hint = rule.id, rule.hint
        return Violation(
            rule=rule_id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            hint=hint if hint is not None else default_hint,
        )


def _parse_waivers(source: str) -> list[Waiver]:
    """Extract waiver comments with the tokenizer (strings stay inert)."""
    waivers: list[Waiver] = []
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _WAIVER_RE.search(token.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            waivers.append(
                Waiver(
                    line=token.start[0],
                    rules=rules,
                    reason=match.group("reason").strip(),
                )
            )
    except tokenize.TokenError:  # unterminated something: ast.parse said no too
        pass
    return waivers


class Rule:
    """Base class: one invariant, one id, one fix hint.

    Subclasses override :meth:`check`, which sees one module at a time.
    """

    id: str = "REP???"
    title: str = ""
    hint: str = ""

    def want(self, ctx: ModuleContext) -> bool:
        """Whether this rule applies to ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        return ()


def collect_python_files(paths: Sequence[Path]) -> list[tuple[Path, Path]]:
    """Expand files/directories into ``(root, file)`` pairs, sorted.

    For a directory argument the directory itself is the root (relpaths
    are computed against it); for a file argument its parent is.
    """
    pairs: list[tuple[Path, Path]] = []
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            pairs.extend((path, found) for found in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            pairs.append((path.parent, path))
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return pairs


def _apply_waivers(
    violations: list[Violation], contexts: dict[str, ModuleContext]
) -> list[Violation]:
    """Drop waived violations; flag unjustified or malformed waivers.

    A waiver covers its own line and -- when the waiver comment stands
    alone on its line -- the next line, so long waived statements can
    keep the justification above them.
    """
    covered: dict[str, dict[int, list[Waiver]]] = {}
    kept: list[Violation] = []
    for relpath, ctx in contexts.items():
        per_line: dict[int, list[Waiver]] = {}
        for waiver in ctx.waivers:
            per_line.setdefault(waiver.line, []).append(waiver)
            stripped = ctx.line_text(waiver.line).strip()
            if stripped.startswith("#"):  # standalone comment: covers next line
                per_line.setdefault(waiver.line + 1, []).append(waiver)
        covered[relpath] = per_line

    used: set[int] = set()
    for violation in violations:
        waivers = covered.get(violation.path, {}).get(violation.line, [])
        match = next(
            (w for w in waivers if violation.rule in w.rules and w.reason), None
        )
        if match is None:
            kept.append(violation)
        else:
            used.add(id(match))

    # Unjustified waivers are violations of their own: the justification
    # text is the whole point of the mechanism.
    for relpath, ctx in contexts.items():
        for waiver in ctx.waivers:
            if not waiver.reason:
                kept.append(
                    ctx.violation(
                        WAIVER_RULE_ID,
                        waiver.line,
                        "waiver without a justification: "
                        f"allow[{','.join(sorted(waiver.rules))}] needs a reason",
                        hint="append why this violation is acceptable, e.g. "
                        "# replint: allow[REP001] wall-clock is telemetry only",
                    )
                )
    return kept


def lint_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    *,
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Run ``rules`` over every ``.py`` file under ``paths``.

    ``select`` filters by rule id (``REP000`` waiver hygiene always
    runs).  Returns violations sorted by (path, line, rule), with
    justified waivers already applied.
    """
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.id in wanted]
    contexts: dict[str, ModuleContext] = {}
    violations: list[Violation] = []
    for root, file in collect_python_files(paths):
        relpath = file.relative_to(root).as_posix()
        try:
            source = file.read_text(encoding="utf-8")
            ctx = ModuleContext(file, relpath, source)
        except (SyntaxError, UnicodeDecodeError) as exc:
            violations.append(
                Violation(
                    rule="REP999",
                    path=relpath,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    message=f"could not parse: {exc}",
                )
            )
            continue
        contexts[relpath] = ctx
        for rule in rules:
            if rule.want(ctx):
                violations.extend(rule.check(ctx))
    violations = _apply_waivers(violations, contexts)
    if select:
        wanted = set(select) | {WAIVER_RULE_ID, "REP999"}
        violations = [v for v in violations if v.rule in wanted]
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))
