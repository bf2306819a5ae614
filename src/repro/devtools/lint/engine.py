"""The replint engine: rules, violations, waivers, and the tree walk.

``replint`` is a self-contained :mod:`ast`-based checker for the
repo-specific invariants the test suite can only police after the fact
(determinism, serialization discipline, registry contracts).  A
:class:`Rule` sees each parsed module once (:meth:`Rule.check`) and the
whole project at the end (:meth:`Rule.finalize`), which is how
cross-module rules -- "every ``@artifact(needs=...)`` names a row of
``LAYER_GRAPH``" -- are expressed in the same framework as per-file
ones.

Suppression is explicit and justified: a violation may be waived with

    something_flagged()  # replint: allow[REP001] why this one is fine

on the flagged line (or on a comment line directly above it).  A waiver
*without* a justification text is itself a violation (``REP000``), so
the tree can never accumulate silent exemptions.
"""

from __future__ import annotations

import ast
import hashlib
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Matches one waiver comment:  ``# replint: allow[REP001,REP008] reason``.
_WAIVER_RE = re.compile(
    r"#\s*replint:\s*allow\[(?P<rules>[A-Z0-9, ]+)\]\s*(?P<reason>.*)$"
)

#: The engine's own rule id: malformed / unjustified waiver comments.
WAIVER_RULE_ID = "REP000"


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to a file:line with a stable fingerprint."""

    rule: str
    path: str  # posix-style, relative to the lint root
    line: int
    col: int
    message: str
    hint: str = ""
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity, so baselines survive edits above.

        Built from the rule, the file, and the *text* of the flagged
        line: inserting code elsewhere in the file does not invalidate a
        baseline entry, while touching the flagged line itself does.
        """
        basis = f"{self.rule}:{self.path}:{self.snippet.strip()}"
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

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
            "fingerprint": self.fingerprint,
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
            snippet=self.line_text(line),
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

    Subclasses override :meth:`check` (per file) and/or :meth:`finalize`
    (once, after every file was seen -- the cross-module pass).  Rules
    are instantiated fresh for every lint run, so ``check`` may collect
    state on ``self`` for ``finalize`` to consume.
    """

    id: str = "REP???"
    title: str = ""
    hint: str = ""

    def want(self, ctx: ModuleContext) -> bool:
        """Whether this rule applies to ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        return ()

    def finalize(self, project: "Project") -> Iterable[Violation]:
        return ()


@dataclass
class Project:
    """Everything a finalize pass may want: all contexts, keyed lookups."""

    root: Path
    contexts: list[ModuleContext] = field(default_factory=list)

    def find(self, *suffixes: str) -> Iterator[ModuleContext]:
        """Contexts whose relpath ends with any of ``suffixes``."""
        for ctx in self.contexts:
            if any(ctx.relpath.endswith(suffix) for suffix in suffixes):
                yield ctx


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
    pairs = collect_python_files(paths)
    project = Project(root=pairs[0][0] if pairs else Path.cwd())
    for root, file in pairs:
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
        project.contexts.append(ctx)
        for rule in rules:
            if rule.want(ctx):
                violations.extend(rule.check(ctx))
    for rule in rules:
        violations.extend(rule.finalize(project))
    violations = _apply_waivers(violations, contexts)
    if select:
        wanted = set(select) | {WAIVER_RULE_ID, "REP999"}
        violations = [v for v in violations if v.rule in wanted]
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))
