"""The package's public names are the ones the README documents, its
modules import one another in layers and a request imports only what it
runs, its records are frozen values that share one constructor, one module
owns the scalar line's memo, the rational reference stays apart from the
integer path it judges, and the benchmark's tracer finds every function it
wraps."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import scalarverma
from scalarverma.errors import Record
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
INTEGER_PATH = {
    "classify_scalar", "_line_chamber", "_line_record", "_line_width", "_pack", "integer_view", "words",
}
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


# The modules a request, its help or a usage error must not load:
# dataclasses (which brings inspect), typing, argparse, and json (strings
# that need escaping only).
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "argparse", "json")
# Runs main on each of its arguments, a command line split on spaces, and
# prints the repr of (exit code, heavy modules loaded so far, stdout).
_REQUEST_SCRIPT = """
import io, sys
from scalarverma.cli import main
for argv in sys.argv[1:]:
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main(argv.split())
    finally:
        out, sys.stdout = sys.stdout, out
    loaded = sorted(set(%r) & set(sys.modules))
    sys.stdout.write(repr((code, loaded, out.getvalue())) + "\\n")
""" % (HEAVY_MODULES,)


def test_cli_imports_only_what_a_request_runs():
    # In a fresh interpreter without site, a well-formed classify and scan,
    # a help and a usage error load none of the heavy modules: annotations
    # are strings, records are plain classes, Iterable comes from
    # collections.abc, which the interpreter loads at start, and help and
    # usage lines are written from cli's flag table.
    argv = [
        "classify --case CI --n 3 --c 0 --format json",
        "scan --case CI --n 3 --window -2..2 --step 1/2 --format json",
        "classify --help",
        "classify --case CI --n 3",
    ]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", _REQUEST_SCRIPT, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    classify, scan, help_, usage = map(ast.literal_eval, run.stdout.splitlines())
    assert classify[:2] == (0, []) and classify[2].startswith('{\n  "case": {')
    assert scan[:2] == (0, []) and scan[2].startswith('{\n  "case": {')
    assert help_[:2] == (0, []) and help_[2].startswith("usage: scalarverma classify [-h]")
    assert usage == (1, [], "")
    assert run.stderr.endswith("scalarverma classify: error: the following arguments are required: --c\n")


def test_no_module_imports_argparse():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "argparse" not in {name.split(".")[0] for name in names}, path.name


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


def test_the_memo_is_written_one_root_at_a_time():
    # weyl writes the memo only at the index of the root it decides, each
    # record whole, and calls no method of it but get: no request rewrites
    # another root's record, and the memo keeps nothing but records.
    writes, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Subscript, ast.Attribute)):
                continue
            memo = isinstance(node.value, ast.Attribute) and node.value.attr == "words"
            if memo and isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                writes.add((path.stem, ast.unparse(node.slice)))
            elif memo and isinstance(node, ast.Attribute):
                methods.add(node.attr)
    assert writes == {("weyl", "j")}
    assert methods == {"get"}


def test_only_weyl_knows_a_roots_line_walls():
    # The view keeps each root's own scaled numbers; its walls live in
    # weyl's per-root record, and only weyl reads the Levi roots they come from.
    assert NilradicalLevel._fields == ("root", "norm", "a", "b", "theta_root")
    assert _attribute_readers("levi_positive") <= {"rootdata", "weyl"}
    # The descent's tables, derived once per view, are weyl's alone too,
    # and hold no Levi root: the datum's own roots are the only copy.
    for name in LEVI_TABLES:
        assert _attribute_readers(name) <= {"rootdata", "weyl"}, name
    view_fields = set(IntegerView._fields)
    assert LEVI_TABLES <= view_fields
    assert not view_fields & {"levi_positive", "levi_simples"}


def test_derivable_fields_are_not_stored():
    # A chamber form's regularity, parity and sign follow from rep and
    # steps, and the view's theta_rho and theta_root from D*theta_u.
    assert ChamberForm._fields == ("rep", "steps")
    assert "theta_u" not in IntegerView._fields
    weyl = importlib.import_module("scalarverma.weyl")
    for name in ("REGULAR", "SINGULAR"):
        assert not hasattr(weyl, name), name


def test_one_root_formatter_reads_the_doubled_record():
    # Every weight of a datum cli writes, roots and rho, zeta and theta_u
    # alike, is written from the datum's integers (`_integers`), which hold
    # the doubled roots: rootdata attaches and scales the record, one
    # function of cli reads it, and no second record or writer of them is left.
    assert _attribute_readers("_integers") == {"rootdata", "cli"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    readers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "_integers" for n in ast.walk(f))
    }
    assert readers == {"_groups"}
    assert _attribute_readers("doubled") == set()
    cli, ratvec = (importlib.import_module(f"scalarverma.{name}") for name in ("cli", "ratvec"))
    for module, name in ((cli, "_w"), (cli, "_lambda0"), (ratvec, "format_rational")):
        assert not hasattr(module, name), name


def test_no_object_is_found_by_identity():
    # Every root is named by its index in a weight group or in the view,
    # never by the id() of a tuple, so the datum's Fraction fields are free
    # to be built lazily: the package neither calls id() nor passes it on.
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not (isinstance(node, ast.Name) and node.id == "id"), f"{path.name}:{node.lineno}"


def test_classify_has_one_writer_of_one_certificate(monkeypatch):
    # Both formats of classify come from one writer, and a class's
    # representative is built in jantzen._classify_point alone: cli reads a
    # memo entry's word, never its w*R or w*B, nor the pair packed from them.
    cli = importlib.import_module("scalarverma.cli")
    for name in ("_classify_json", "_classify_pretty", "_representatives"):
        assert not hasattr(cli, name), name
    whole = cli._classify_point

    def blind(term):
        j, k, entry, _ = term
        return j, k, None if entry is None else (*entry[:2], None, None, entry[4]), None

    def classify_point(view, c):
        verdict, route, terms, classes, witness, den = whole(view, c)
        classes = [(rep, net, list(map(blind, members))) for rep, net, members in classes]
        return verdict, route, list(map(blind, terms)), classes, witness, den

    # a two-member class, EIII's full support, a support of walls only
    points = [("BI", 3, -1), ("EIII", None, 9), ("CI", 3, -2), ("CI", 20, 0)]
    points = [(scalarverma.HermitianCase(tag, n=n), Fraction(c)) for tag, n, c in points]
    texts = [cli._classify(case, c, fmt) for case, c in points for fmt in ("json", "pretty")]
    monkeypatch.setattr(cli, "_classify_point", classify_point)
    assert [cli._classify(case, c, fmt) for case, c in points for fmt in ("json", "pretty")] == texts


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


def test_reference_imports_no_private_name():
    # The reference states its own rules, the verdict rule among them: it
    # imports only public names of the package, so no private helper of
    # the path it judges decides for it.  A plain import of a package module
    # would reach its private names by attribute, so there is none.
    imported, modules = [], []
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scalarverma":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name.split(".")[0] for alias in node.names]
    assert ("scalarverma.jantzen", "jantzen_support") in imported
    assert [name for _, name in imported if name.startswith("_")] == []
    assert "scalarverma" not in modules


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
    # holds jantzen's only calls into weyl's scalar line, each entry's
    # fetch, and jantzen's only calls of the walk's width and the packing,
    # which live in jantzen, and its only theta-split raise.  jantzen takes
    # nothing else of weyl's but the chamber form.
    tree = ast.parse((PACKAGE / "jantzen.py").read_text(encoding="utf-8"))
    walk = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_walk")

    def calls(node):
        return [n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]

    for name, count in (("_line_chamber", 1), ("_line_width", 1), ("_pack", 2)):
        assert calls(tree).count(name) == calls(walk).count(name) == count, name
    imported = {
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "weyl"
        for alias in n.names
    }
    assert imported == {"ChamberForm", "_line_chamber"}
    raises = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and "_THETA_SPLIT" in ast.unparse(n)]
    assert len(raises) == 1 and raises[0] in list(ast.walk(walk))


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
    fields = jantzen.SimplicityVerdict._fields
    assert fields == ("verdict", "route", "terms", "certificate", "witness")
    first, again = (jantzen.classify_scalar(scalarverma.HermitianCase("CI", n=3), -1) for _ in "ab")
    assert first is not again and first == again and hash(first) == hash(again)


def _records():
    """One instance of each of the package's eleven records, by class name."""
    ehw = importlib.import_module("scalarverma.ehw")
    rootdata = importlib.import_module("scalarverma.rootdata")
    case = scalarverma.HermitianCase("CI", n=3)
    datum = scalarverma.build_datum(case)
    verdict = scalarverma.classify_scalar(datum, -1)
    view = datum.integer_view
    records = [
        case, datum, view, view.nilradical[0], verdict, verdict.terms[0],
        verdict.terms[0].chamber, verdict.certificate[0],
        ehw.special_line(datum, rootdata.scalar_parameter_weight(datum, -1)),
        scalarverma.abc_constants(case),
        ehw.ProgressionSummary((Fraction(-3),), Fraction(-1), Fraction(1)),
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_values(name):
    # Each record's repr, equality and hash run over its declared fields
    # alone, as the frozen dataclasses' did, and no field can be set.
    record = RECORDS[name]
    assert len(RECORDS) == 11
    cls = type(record)
    values = {field: getattr(record, field) for field in cls._fields}
    inner = ", ".join(f"{field}={value!r}" for field, value in values.items())
    assert repr(record) == f"{name}({inner})"
    copy = cls(**values)
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert record != tuple(values.values()) and record != object()
    for field in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert {field: getattr(record, field) for field in cls._fields} == values
    # the record base's generic pair agrees with any record's own
    assert Record.__eq__(copy, record) is True and Record.__hash__(record) == hash(record)


def test_records_leave_their_private_state_out():
    # A datum's integer record and a view's memo take no part in repr or
    # equality, and a datum rebuilt from its fields holds no integer record.
    datum, view = RECORDS["ParabolicRootDatum"], RECORDS["IntegerView"]
    rebuilt = type(datum)(**{field: getattr(datum, field) for field in datum._fields})
    assert datum._integers is not None and rebuilt._integers is None and rebuilt == datum
    assert "_integers" not in repr(datum) and "words" not in repr(view)
    assert not {"_integers", "integer_view"} & set(datum._fields)
    assert not hasattr(datum, "doubled")
    assert "words" not in view._fields


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_share_one_constructor_contract(name):
    # Fields bind in `_fields` order, positionally or by keyword; a missing,
    # extra, unknown or repeated one is a TypeError.  HermitianCase alone
    # defaults some fields (p, q and n to None).
    record = RECORDS[name]
    cls, fields = type(record), type(record)._fields
    values = [getattr(record, field) for field in fields]

    def after(k):
        """The fields from the k-th on, by keyword."""
        return dict(zip(fields[k:], values[k:]))

    for k in range(len(fields) + 1):
        copy = cls(*values[:k], **after(k))
        assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)
    defaulted = {"p", "q", "n"} if cls is scalarverma.HermitianCase else set()
    # an extra positional argument, and an unknown keyword
    calls = [((*values, None), {}), (values, {"extra": None})]
    # the k-th field given both positionally and by keyword
    calls += [(values[:k], {fields[k - 1]: values[k - 1], **after(k)}) for k in range(1, len(fields) + 1)]
    # each field left out, from keywords or from the end of the positions
    calls += [([], {f: v for f, v in after(0).items() if f != field}) for field in fields if field not in defaulted]
    calls += [(values[:k], {}) for k in range(len(fields)) if fields[k] not in defaulted]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_records_state_their_fields_once():
    # Only two records define a constructor, each for what the base's
    # cannot do (HermitianCase validates, the view keeps an attribute
    # outside its fields), and none sets a field itself.  The datum's
    # attributes outside its fields are attached by the build alone.
    kept = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and "Record" in [getattr(b, "id", None) for b in node.bases]):
                continue
            kept[node.name] = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            fields = getattr(importlib.import_module(f"scalarverma.{path.stem}"), node.name)._fields
            for init in kept[node.name]:
                for call in ast.walk(init):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "set_field":
                        assert call.args[1].value not in fields, (node.name, call.args[1].value)
    assert set(kept) == set(RECORDS)
    assert {name for name, inits in kept.items() if inits} == {"HermitianCase", "IntegerView"}


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
