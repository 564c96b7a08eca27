"""The package's public names are the ones the README documents, and its
modules import one another in layers."""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import scalarverma

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(scalarverma.__file__).resolve().parent

# Modules and the only package modules each may import from.
IMPORT_LIMITS = {
    "rootdata": {"ratvec", "errors"},
}


def test_exports_resolve_and_are_documented():
    text = README.read_text(encoding="utf-8")
    for name in scalarverma.__all__:
        assert hasattr(scalarverma, name), name
        assert f"`{name}`" in text, f"{name} is exported but not documented"


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package and the sibling modules it imports from."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .x import ...
                    targets.add(node.module.split(".")[0])
                else:  # from . import x
                    targets.update(alias.name for alias in node.names)
    return graph


def test_package_imports_have_no_cycle():
    graph = _package_imports()
    assert "rootdata" in graph and "cli" in graph
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")


@pytest.mark.parametrize("module", sorted(IMPORT_LIMITS))
def test_module_imports_stay_within_their_layer(module):
    assert _package_imports()[module] <= IMPORT_LIMITS[module]
