"""REP004 + REP005: the registry's declarative contracts hold statically.

REP004 -- every ``@artifact`` registration declares which session layers
it reads (``needs=...``, a literal subset of the layer names of
``api/session.py``'s ``LAYER_GRAPH`` rows) and documents itself (the registry lifts the docstring's
first line into ``repro list``).  An artifact with no ``needs`` hides
its build cost; one with an unknown layer would fail only at import
time, and only if something imports it.

REP005 -- every :class:`~repro.whatif.spec.Intervention` subclass
declares the layers it perturbs (``LAYERS``, a literal subset of
``PERTURBABLE_LAYERS``).  That declaration is what the overlay engine
uses to decide which caches to fork; an empty or unknown declaration
means a counterfactual that silently reuses baseline universes it
actually changed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import dotted_name, string_elements
from repro.devtools.lint.engine import ModuleContext, Project, Rule, Violation

#: Fallbacks when the linted tree does not carry the vocabulary modules
#: (fixture corpora); the real tree overrides these from the source.  A
#: test pins them to ``LAYER_GRAPH`` and ``PERTURBABLE_LAYERS``.
DEFAULT_REGISTRY_LAYERS = frozenset(
    {"traffic", "census", "cloud", "dependencies", "observatory", "whatif", "sentinel"}
)
DEFAULT_PERTURBABLE_LAYERS = frozenset({"traffic", "census", "observatory"})


def _layer_rows(ctx: ModuleContext) -> frozenset[str] | None:
    """The names of the ``Layer("<name>", ...)`` rows, when present."""
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and dotted_name(node.func) == "Layer" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
    return frozenset(names) if names else None


def _module_level_string_set(ctx: ModuleContext, name: str) -> frozenset[str] | None:
    """A module-level ``NAME = frozenset({...})`` literal, when present."""
    for node in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                elements = string_elements(value)
                if elements is not None:
                    return frozenset(elements)
    return None


class ArtifactContractRule(Rule):
    id = "REP004"
    title = "@artifact declares known layers and carries a docstring"
    hint = (
        "declare needs=(...) as a literal tuple of session layers "
        "(the rows of repro.api.session.LAYER_GRAPH) and give the renderer "
        "a docstring -- its first line becomes the artifact's description "
        "in `repro list`"
    )

    def __init__(self) -> None:
        self._decorated: list[tuple[ModuleContext, ast.FunctionDef, ast.Call]] = []
        self._layers: frozenset[str] | None = None

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        if ctx.relpath.endswith("api/session.py"):
            self._layers = _layer_rows(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                name = dotted_name(decorator.func) or ""
                if name == "artifact" or name.endswith(".artifact"):
                    self._decorated.append((ctx, node, decorator))
        return ()

    def finalize(self, project: Project) -> Iterable[Violation]:
        layers = self._layers or DEFAULT_REGISTRY_LAYERS
        for ctx, fn, decorator in self._decorated:
            needs = _needs_argument(decorator)
            if needs is None:
                yield ctx.violation(
                    self,
                    decorator,
                    f"artifact renderer {fn.name!r} does not declare its "
                    "layers: pass needs=(...) as a literal tuple",
                )
            else:
                declared = string_elements(needs)
                if declared is None:
                    yield ctx.violation(
                        self,
                        needs,
                        f"artifact renderer {fn.name!r}: needs must be a "
                        "literal collection of layer-name strings",
                    )
                elif not declared:
                    yield ctx.violation(
                        self,
                        needs,
                        f"artifact renderer {fn.name!r} declares no layers; "
                        "every artifact reads at least one session layer",
                    )
                else:
                    unknown = sorted(set(declared) - layers)
                    if unknown:
                        yield ctx.violation(
                            self,
                            needs,
                            f"artifact renderer {fn.name!r} declares unknown "
                            f"layers {unknown}; known: {sorted(layers)}",
                        )
            if ast.get_docstring(fn) is None:
                yield ctx.violation(
                    self,
                    fn,
                    f"artifact renderer {fn.name!r} has no docstring "
                    "(its first line is the registry description)",
                )


def _needs_argument(decorator: ast.Call) -> ast.AST | None:
    for keyword in decorator.keywords:
        if keyword.arg == "needs":
            return keyword.value
    if len(decorator.args) >= 2:
        return decorator.args[1]
    return None


class InterventionContractRule(Rule):
    id = "REP005"
    title = "Intervention subclasses declare perturbed layers"
    hint = (
        "declare LAYERS: ClassVar[frozenset[str]] = frozenset({...}) with "
        "layers from repro.whatif.spec.PERTURBABLE_LAYERS -- the overlay "
        "engine rebuilds exactly (and only) what this set names"
    )

    def __init__(self) -> None:
        self._classes: list[tuple[ModuleContext, ast.ClassDef]] = []
        self._vocabulary: frozenset[str] | None = None

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        vocabulary = _module_level_string_set(ctx, "PERTURBABLE_LAYERS")
        if vocabulary is not None:
            self._vocabulary = vocabulary
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_name = dotted_name(base) or ""
                if base_name == "Intervention" or base_name.endswith(".Intervention"):
                    self._classes.append((ctx, node))
                    break
        return ()

    def finalize(self, project: Project) -> Iterable[Violation]:
        vocabulary = self._vocabulary or DEFAULT_PERTURBABLE_LAYERS
        for ctx, node in self._classes:
            declared = _class_layers(node)
            if declared is None:
                yield ctx.violation(
                    self,
                    node,
                    f"intervention {node.name} does not declare LAYERS as a "
                    "literal frozenset of perturbed-layer names",
                )
                continue
            if not declared:
                yield ctx.violation(
                    self,
                    node,
                    f"intervention {node.name} declares an empty LAYERS set; "
                    "an intervention that perturbs nothing is a no-op",
                )
                continue
            unknown = sorted(set(declared) - vocabulary)
            if unknown:
                yield ctx.violation(
                    self,
                    node,
                    f"intervention {node.name} declares unknown layers "
                    f"{unknown}; perturbable: {sorted(vocabulary)}",
                )


def _class_layers(node: ast.ClassDef) -> list[str] | None:
    for statement in node.body:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "LAYERS":
                return string_elements(value)
    return None
