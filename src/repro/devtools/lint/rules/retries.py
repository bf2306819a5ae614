"""REP009: retry/backoff loops live in ``repro.resilience`` only.

Ad-hoc retry loops -- a ``time.sleep`` inside a ``while``/``for``, or a
``for attempt in range(...)`` that swallows an exception and continues
-- scatter backoff behaviour (attempt counts, delay growth, jitter,
budgets) across the tree where nobody can audit or test it.  The repo
defines retrying exactly once, in :func:`repro.resilience.retry.
call_with_retry`: bounded exponential backoff, deterministic jitter
(REP001), a per-call timeout budget, and one telemetry counter.  This
rule flags every sleep-in-a-loop and retry-shaped loop outside
``repro/resilience/`` so new transient-failure handling is steered
through the shared policy instead of growing its own.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import import_aliases, resolve_call_name
from repro.devtools.lint.engine import ModuleContext, Rule, Violation

#: Callables that stall the thread/loop -- the backoff primitive an
#: ad-hoc retry loop is built around.
SLEEP_CALLS = frozenset({"time.sleep", "asyncio.sleep"})

_HINT = (
    "wrap the flaky call in repro.resilience.retry.call_with_retry (one "
    "shared policy: bounded backoff, deterministic jitter, timeout "
    "budget, retries_total telemetry) instead of hand-rolling a "
    "sleep/retry loop; a loop that genuinely is not a retry needs a "
    "justified '# replint: allow[REP009] ...' waiver"
)


class AdHocRetryRule(Rule):
    id = "REP009"
    title = "retry/sleep loops are centralized in repro.resilience"
    hint = _HINT

    def want(self, ctx: ModuleContext) -> bool:
        # The resilience package *implements* the shared policy (its
        # sleep loop is the one every caller is steered into), and
        # devtools is offline tooling, not library code.
        return (
            "resilience/" not in ctx.relpath and "devtools/" not in ctx.relpath
        )

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        aliases = import_aliases(ctx.tree)
        seen: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._flag_sleeps(ctx, node, aliases, seen)
                if isinstance(node, ast.For) and _is_retry_shaped(node, aliases):
                    if id(node) not in seen:
                        seen.add(id(node))
                        yield ctx.violation(
                            self,
                            node,
                            "retry-shaped loop (for ... in range(...) that "
                            "catches an exception and continues); use "
                            "resilience.retry.call_with_retry",
                        )

    def _flag_sleeps(
        self,
        ctx: ModuleContext,
        loop: ast.AST,
        aliases: dict[str, str],
        seen: set[int],
    ) -> Iterable[Violation]:
        for node in ast.walk(loop):
            if node is loop or not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name in SLEEP_CALLS and id(node) not in seen:
                seen.add(id(node))
                yield ctx.violation(
                    self,
                    node,
                    f"{name}() inside a loop is an ad-hoc backoff; "
                    "retrying goes through resilience.retry.call_with_retry",
                )


def _is_retry_shaped(loop: ast.For, aliases: dict[str, str]) -> bool:
    """``for _ in range(...)`` whose body swallows an exception to loop on."""
    if not isinstance(loop.iter, ast.Call):
        return False
    if resolve_call_name(loop.iter.func, aliases) != "range":
        return False
    for node in ast.walk(loop):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                if any(
                    isinstance(child, ast.Continue)
                    for stmt in handler.body
                    for child in ast.walk(stmt)
                ):
                    return True
    return False
