"""The artifact registry: named, self-describing paper artifacts.

Every figure and table of the paper is registered here by decorating a
renderer with :func:`artifact`.  A renderer takes a
:class:`~repro.api.session.Study` (plus optional keyword parameters) and
returns an :class:`ArtifactResult` -- structured rows that render to an
aligned text table or to JSON without re-running the analysis.

The registry is the single list of what the reproduction can produce:
the CLI (``python -m repro list``), :meth:`Study.artifact`, and the
report module all resolve names through :func:`get`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.api.session import LAYER_GRAPH, Study
from repro.util.tables import TextTable


def jsonify(value: Any) -> Any:
    """Recursively convert analysis output into JSON-encodable types."""
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(key): jsonify(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


@dataclass
class ArtifactResult:
    """One rendered artifact: structured rows plus display metadata.

    ``rows`` hold the artifact's data as plain dicts (JSON-friendly);
    ``columns`` orders them for tabular display.  Renderers that need a
    non-tabular layout (series listings, prose summaries) fill ``lines``
    or override ``text`` entirely; both representations always come from
    the same single analysis pass.
    """

    name: str = ""
    title: str = ""
    columns: tuple[str, ...] = ()
    rows: list[dict[str, Any]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    text: str | None = None

    def to_text(self) -> str:
        """Render as an aligned text table / series listing."""
        if self.text is not None:
            return self.text
        parts: list[str] = []
        if self.columns:
            table = TextTable(list(self.columns), title=self.title)
            for row in self.rows:
                table.add_row([_cell(row.get(column, "")) for column in self.columns])
            parts.append(table.render())
        elif self.title:
            parts.append(self.title)
        parts.extend(self.lines)
        return "\n".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-encodable form of this artifact."""
        return {
            "name": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": jsonify(self.rows),
            "metadata": jsonify(self.metadata),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _cell(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class ArtifactSpec:
    """A registered artifact renderer and its declared inputs."""

    name: str
    fn: Callable[..., ArtifactResult]
    needs: frozenset[str]
    title: str
    paper: str
    description: str


_REGISTRY: dict[str, ArtifactSpec] = {}
_discovered = False


def artifact(
    name: str,
    needs: tuple[str, ...] | frozenset[str] = (),
    title: str = "",
    paper: str = "",
) -> Callable[[Callable[..., ArtifactResult]], Callable[..., ArtifactResult]]:
    """Register ``fn`` as the renderer for artifact ``name``.

    The declaration is checked here, when the renderer's module is
    imported: a repeated ``name``, an empty ``needs`` or a layer that is
    not a row of :data:`~repro.api.session.LAYER_GRAPH` raises
    ``ValueError``.

    Args:
        name: CLI-facing artifact name (``table1``, ``fig5``, ...).
        needs: which session layers the renderer reads (at least one),
            rows of :data:`~repro.api.session.LAYER_GRAPH`.  Purely
            declarative -- layers build lazily on first access either
            way -- but drives ``repro list`` and the memoization tests.
        title: display title; defaults into results that leave it empty.
        paper: the paper figure/table this reproduces, e.g. ``"Figure 5"``.
    """
    if name in _REGISTRY:
        raise ValueError(f"artifact {name!r} is already registered")
    needs_set = frozenset(needs)
    unknown = needs_set - LAYER_GRAPH.keys()
    if not needs_set or unknown:
        problem = f"needs unknown layers {sorted(unknown)}" if unknown else "declares no layers"
        raise ValueError(f"artifact {name!r} {problem}; expected some of {sorted(LAYER_GRAPH)}")

    def register(fn: Callable[..., ArtifactResult]) -> Callable[..., ArtifactResult]:
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        description = doc_lines[0] if doc_lines else ""
        _REGISTRY[name] = ArtifactSpec(
            name=name,
            fn=fn,
            needs=needs_set,
            title=title,
            paper=paper,
            description=description,
        )
        return fn

    return register


def _discover() -> None:
    """Import the artifact modules once so their decorators register."""
    global _discovered
    if not _discovered:
        _discovered = True
        import repro.api.artifacts  # noqa: F401  (registration side effect)


def names() -> list[str]:
    """All registered artifact names, sorted."""
    _discover()
    return sorted(_REGISTRY)


def specs() -> list[ArtifactSpec]:
    """All registered specs, sorted by name."""
    _discover()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def suggest(name: str, extra: tuple[str, ...] = ()) -> list[str]:
    """Close matches for a misspelled artifact name (for error messages).

    ``extra`` adds candidates beyond the registry -- the CLI passes its
    meta commands (``list``, ``all``) so the did-you-mean hint covers
    them too.
    """
    import difflib

    _discover()
    return difflib.get_close_matches(
        name, [*sorted(_REGISTRY), *extra], n=3, cutoff=0.5
    )


def get(name: str) -> ArtifactSpec:
    """Look up one artifact; raises ``KeyError`` with a suggestion."""
    _discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        close = suggest(name)
        hint = (
            f"did you mean {' or '.join(repr(m) for m in close)}?"
            if close
            else f"known: {', '.join(sorted(_REGISTRY))}"
        )
        raise KeyError(f"unknown artifact {name!r}; {hint}") from None


def run(study: "Study", name: str, **params: Any) -> ArtifactResult:
    """Run one artifact against ``study`` and normalize the result.

    Each run opens an ``artifact:<name>`` span, so layer builds the
    artifact triggers nest under it in the trace tree (and a CLI or
    serve span above sees per-artifact attribution).
    """
    from repro.telemetry import span

    spec = get(name)
    with span(f"artifact:{name}"):
        result = spec.fn(study, **params)
    if not result.name:
        result.name = spec.name
    if not result.title and spec.title:
        result.title = spec.title
    return result
