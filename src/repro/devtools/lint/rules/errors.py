"""REP007: no silently swallowed errors in the serving and store tiers.

``serve/`` and ``store/`` are the long-running, operator-facing tiers:
an exception that vanishes into ``except: pass`` there is a corrupted
warehouse entry nobody notices or a serving degradation with no trace.
Degrade-to-rebuild is the *documented* contract of those tiers -- but
every degradation must leave a mark (a warning, a log line, an error
counter) or re-raise.  Bare ``except:`` is flagged unconditionally (it
catches ``KeyboardInterrupt``/``SystemExit`` too); ``except
Exception``/``BaseException`` is flagged when the handler body does
nothing at all.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import ModuleContext, Rule, Violation

#: The tiers this rule patrols (posix path fragments).
SCOPED_FRAGMENTS = ("serve/", "store/")

_BROAD = ("Exception", "BaseException")


class SwallowedErrorRule(Rule):
    id = "REP007"
    title = "serve/store error handlers log, count, or re-raise"
    hint = (
        "record the degradation (warnings.warn, a store_ops_total error "
        "count, an errors list) or re-raise; narrow the except type "
        "if only specific failures are expected"
    )

    def want(self, ctx: ModuleContext) -> bool:
        return any(fragment in ctx.relpath for fragment in SCOPED_FRAGMENTS)

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.violation(
                    self,
                    node,
                    "bare 'except:' swallows KeyboardInterrupt and "
                    "SystemExit; catch Exception (and handle it) at most",
                )
                continue
            if _is_broad(node.type) and _body_does_nothing(node.body):
                yield ctx.violation(
                    self,
                    node,
                    "'except Exception' with an empty body: the error "
                    "disappears without a warning, counter, or log line",
                )
        return ()


def _is_broad(type_node: ast.AST) -> bool:
    names: list[ast.AST]
    if isinstance(type_node, ast.Tuple):
        names = list(type_node.elts)
    else:
        names = [type_node]
    for name in names:
        if isinstance(name, ast.Name) and name.id in _BROAD:
            return True
        if isinstance(name, ast.Attribute) and name.attr in _BROAD:
            return True
    return False


def _body_does_nothing(body: list[ast.stmt]) -> bool:
    """True when the handler is only ``pass``, ``...``, or docstrings."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True
