"""The package's public names are the ones the README documents, its
modules import one another in layers, one module owns the scalar line's memo,
the rational reference stays apart from the integer path it judges, and the
benchmark's tracer finds every function it wraps."""

from __future__ import annotations

import ast
import dataclasses
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import scalarverma
from scalarverma.rootdata import IntegerView, NilradicalLevel
from scalarverma.weyl import ChamberForm

README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
PACKAGE = Path(scalarverma.__file__).resolve().parent

# Modules and the only package modules each may import from.
IMPORT_LIMITS = {
    "rootdata": {"ratvec", "errors"},
    # The closed form is checked against the Jantzen path, so it never reads it.
    "ehw": {"rootdata", "ratvec", "errors"},
    "weyl": {"rootdata", "ratvec", "errors"},
    "jantzen": {"rootdata", "ratvec", "weyl", "errors"},
}
# Names of the integer path that the rational reference must not touch.
# The view's Levi tables
LEVI_TABLES = {
    "levi_norms", "simple_norms", "rho_levi", "rho_simple", "gram_rows", "simple_coords",
    "levi_columns",
}
INTEGER_PATH = {"classify_scalar", "_line_chamber", "_line_record", "integer_view", "words"}
INTEGER_PATH |= LEVI_TABLES


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


def _attribute_readers(attr: str) -> set[str]:
    """The package modules that read an attribute named attr."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                readers.add(path.stem)
    return readers


def test_only_weyl_reads_the_chamber_word_memo():
    assert _attribute_readers("words") == {"weyl"}


def test_only_weyl_knows_a_roots_line_walls():
    # The view keeps each root's own scaled numbers; its walls live in
    # weyl's per-root record, and only weyl reads the Levi roots they come from.
    fields = [f.name for f in dataclasses.fields(NilradicalLevel)]
    assert fields == ["root", "norm", "a", "b", "theta_root"]
    assert _attribute_readers("levi_positive") <= {"rootdata", "weyl"}
    # The descent's tables, derived once per view, are weyl's alone too,
    # and hold no Levi root: the datum's own roots are the only copy.
    for name in LEVI_TABLES:
        assert _attribute_readers(name) <= {"rootdata", "weyl"}, name
    view_fields = {f.name for f in dataclasses.fields(IntegerView)}
    assert LEVI_TABLES <= view_fields
    assert not view_fields & {"levi_positive", "levi_simples"}


def test_derivable_fields_are_not_stored():
    # A chamber form's regularity, parity and sign follow from rep and
    # steps, and the view's theta_rho and theta_root from D*theta_u.
    assert [f.name for f in dataclasses.fields(ChamberForm)] == ["rep", "steps"]
    assert "theta_u" not in {f.name for f in dataclasses.fields(IntegerView)}
    weyl = importlib.import_module("scalarverma.weyl")
    for name in ("REGULAR", "SINGULAR"):
        assert not hasattr(weyl, name), name


def test_one_root_formatter_reads_the_doubled_record():
    # Every root cli writes takes its strings from _root_texts, and nothing
    # else in the package reads the record.
    assert _attribute_readers("doubled") == {"cli"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    readers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "doubled" for n in ast.walk(f))
    }
    assert readers == {"_root_texts"}


def test_reference_never_names_the_integer_path():
    named = set()
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert {"jantzen_support", "normalize", "theta_pairing"} <= named
    assert not named & INTEGER_PATH


def test_library_holds_one_decision_procedure():
    jantzen = importlib.import_module("scalarverma.jantzen")
    for name in ("simplicity_oracle", "_verdict"):
        assert not hasattr(jantzen, name), name


def test_each_decision_has_one_copy():
    # The scalar line's only descent runs inside weyl._line_chamber, and the
    # closed form is two unit progressions read off (A, B, C).
    weyl = importlib.import_module("scalarverma.weyl")
    ehw = importlib.import_module("scalarverma.ehw")
    assert not hasattr(weyl, "normalize_scaled")
    for name in ("Progression", "ReducibilitySet", "reducibility_set"):
        assert not hasattr(ehw, name), name


def test_one_term_walk_serves_every_decision():
    # classify_scalar and ScalarGrid hand their terms to one walk, which
    # holds jantzen's only call of weyl's line chamber and its only
    # theta-split raise.
    tree = ast.parse((PACKAGE / "jantzen.py").read_text(encoding="utf-8"))
    calls = [n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert calls.count("_line_chamber") == 1
    raises = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and "_THETA_SPLIT" in ast.unparse(n)]
    assert len(raises) == 1


def test_one_copy_of_the_closed_form_and_the_screen():
    # ehw states each rule once, as a progression on a grid; its one-point
    # reads use the same progressions, and cli has no per-point test of its own.
    ehw = importlib.import_module("scalarverma.ehw")
    assert not hasattr(ehw, "closed_form_reducible_ratio") and not hasattr(ehw, "abc_verdict_ratio")
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert not names & {"closed_form_reducible", "abc_verdict", "_closed_form_starts"}
    assert {"closed_form_grid", "screen_grid"} <= names


def test_verdict_is_a_plain_record():
    jantzen = importlib.import_module("scalarverma.jantzen")
    fields = [f.name for f in dataclasses.fields(jantzen.SimplicityVerdict)]
    assert fields == ["verdict", "route", "terms", "certificate", "witness"]
    first, again = (jantzen.classify_scalar(scalarverma.HermitianCase("CI", n=3), -1) for _ in "ab")
    assert first is not again and first == again and hash(first) == hash(again)


def test_tables_read_the_cases_own_roots():
    # The exceptional tables name each row by the signs of the case's own
    # nilradical root; the sign-pattern encoder and the rational theta
    # pairing live in the tests that check them.
    rootdata = importlib.import_module("scalarverma.rootdata")
    for name in ("sign_pattern_root", "parse_pattern", "pattern_string"):
        assert not hasattr(rootdata, name), name
    assert not hasattr(importlib.import_module("scalarverma.weyl"), "theta_pairing")
    assert not hasattr(importlib.import_module("scalarverma.cli"), "_all_patterns")


def test_package_root_exports_the_decision_procedure():
    # The rational pieces the tests and the benchmark's tracer use stay in
    # their modules, out of the package root.
    assert len(scalarverma.__all__) == 10
    pieces = (("jantzen", "jantzen_support"), ("weyl", "normalize"), ("ehw", "special_line"))
    for module, name in pieces:
        assert not hasattr(scalarverma, name), name
        assert callable(getattr(importlib.import_module(f"scalarverma.{module}"), name)), name


def _tracer_hooks() -> dict[str, tuple]:
    """SPANNED, COUNTED and MODULES as the tracer assigns them, read without importing it."""
    hooks = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED", "MODULES"):
                    hooks[target.id] = ast.literal_eval(node.value)
    return hooks


def test_tracer_hooks_resolve():
    # The traced benchmark pass wraps these by name; a deleted one crashes it.
    hooks = _tracer_hooks()
    assert set(hooks) == {"SPANNED", "COUNTED", "MODULES"}
    for module in hooks["MODULES"]:
        importlib.import_module(f"scalarverma.{module}")
    for module, attr in hooks["SPANNED"] + hooks["COUNTED"]:
        fn = getattr(importlib.import_module(f"scalarverma.{module}"), attr, None)
        assert callable(fn), f"{module}.{attr}"
        # The tracer files a span under the module it names, so the
        # function must be that module's own, not a name it imported.
        assert fn.__module__ == f"scalarverma.{module}", f"{module}.{attr}"
