"""Export-drift guard: ``__all__`` must exactly match the imports.

``repro/core/__init__.py`` (and the other aggregating ``__init__``
modules) maintain the import list and ``__all__`` by hand, in two
places; this test keeps them from drifting apart.
"""

import ast
import importlib

import pytest

AGGREGATORS = [
    "repro.core",
    "repro.api",
    "repro.datasets",
    "repro.flowmon",
    "repro.observatory",
    "repro.whatif",
    "repro.store",
    "repro.serve",
    "repro.resilience",
    "repro.telemetry",
    "repro.prof",
]


def _imported_names(module) -> set[str]:
    tree = ast.parse(open(module.__file__).read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module_name", AGGREGATORS)
def test_all_matches_imports(module_name):
    module = importlib.import_module(module_name)
    declared = list(module.__all__)
    assert len(set(declared)) == len(declared), "duplicate names in __all__"
    imported = _imported_names(module)
    assert set(declared) == imported, (
        f"{module_name}.__all__ drifted from its imports: "
        f"missing={sorted(imported - set(declared))}, "
        f"stale={sorted(set(declared) - imported)}"
    )


@pytest.mark.parametrize("module_name", AGGREGATORS)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, name
