"""Shared AST helpers: dotted-name resolution through import aliases.

The determinism and serialization rules need to know that ``np.random
.rand(...)`` is really ``numpy.random.rand`` and that ``datetime.now``
after ``from datetime import datetime`` is ``datetime.datetime.now``.
:func:`import_aliases` builds the per-module alias map and
:func:`resolve_call_name` expands a call's dotted chain through it.
"""

from __future__ import annotations

import ast
from typing import Iterator


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import targets they stand for.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from datetime
    import datetime as dt`` yields ``{"dt": "datetime.datetime"}``.
    Only top-level and function/class-nested imports are walked -- the
    whole tree, since local imports are idiomatic in this repo.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.partition(".")[0]
                target = item.name if item.asname else item.name.partition(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""  # relative imports keep the tail, best effort
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{base}.{item.name}" if base else item.name
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """The literal dotted chain of a Name/Attribute node, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_name(func: ast.AST, aliases: dict[str, str]) -> str | None:
    """Expand a call's function chain through the module's import aliases.

    Returns the fully-qualified dotted name when the chain roots in an
    imported name (``np.random.rand`` -> ``numpy.random.rand``), the
    literal chain otherwise, or ``None`` for non-name callables
    (lambdas, subscripts, call results).
    """
    chain = dotted_name(func)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    target = aliases.get(head)
    if target is None:
        return chain
    return f"{target}.{rest}" if rest else target


def walk_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def iter_comprehension_iters(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.AST]]:
    """Every iteration site: ``for`` statements and comprehension clauses.

    Yields ``(anchor_node, iterable_expr)`` pairs; the anchor carries the
    line/col a violation should point at.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter, generator.iter
