"""Command-line surface: parsing, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import scalarverma
from conftest import ADMISSIBLE_CASES, SWEEP_CASES, case_flags, clear_request_caches, replaced
from scalarverma import HermitianCase, InvariantError, build_datum
from scalarverma import cli, ehw, jantzen, rootdata
from scalarverma.cli import main
from scalarverma.errors import set_field
from scalarverma.ratvec import parse_rational, weight
from scalarverma.rootdata import scalar_parameter_weight
from reference import classify_json_reference, classify_pretty_reference
from test_readme import COMMANDS as README_COMMANDS

Q = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def classify_json(capsys, *argv):
    code, out, err = run_cli(capsys, "classify", "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_classify_json_schema(capsys):
    payload = classify_json(capsys, "--case", "CI", "--n", "2", "--c", "-1/2")
    assert payload["label"] == "CI(2)"
    assert payload["c"] == "-1/2" and payload["z"] == "3/2"
    assert payload["verdict"] == "Reducible" and payload["route"] == "sum_survives"
    assert payload["s_lambda_size"] == 1
    assert payload["s_lambda"] == [["1", "1"]]
    assert payload["singular"] == []
    assert payload["surviving_classes"] == [
        {"rep": ["-1/2", "-3/2"], "net_sign": 1, "members": [["1", "1"]]}
    ]
    assert payload["witness"] == ["1", "1"]
    assert payload["lambda0"] == ["-2", "-2"]


# Every case below its reducible progressions, and the sweep cases at points
# on and off the half-integer lattice.
LINE_POINTS = [(case, Q(-201, 2)) for case in ADMISSIBLE_CASES] + [
    (case, c) for case in SWEEP_CASES for c in (Q(-7, 3), Q(0), Q(5, 2))
]


def test_classify_line_matches_special_line():
    for case, c in LINE_POINTS:
        payload = json.loads(cli._classify(case, c.as_integer_ratio(), "json"))
        datum = build_datum(case)
        line = ehw.special_line(datum, scalar_parameter_weight(datum, c))
        assert payload["z"] == str(line.z), (case.label, c)
        assert payload["lambda0"] == [str(x) for x in line.lambda0], case.label


def test_classify_negative_value_without_equals(capsys):
    # a separate value starting with a single "-" is the value of the flag before it
    a = classify_json(capsys, "--case", "AIII", "--p", "2", "--q", "2", "--c", "-3")
    b = classify_json(capsys, "--case", "AIII", "--p", "2", "--q", "2", "--c=-3")
    assert a == b


@pytest.mark.parametrize("argv, starved", [
    (["classify", "--case", "AIII", "--p", "2", "--q", "--c", "1"], "--q"),
    (["scan", "--case", "EIII", "--window", "--step", "1/2"], "--window"),
])
def test_flag_is_never_taken_as_a_value(capsys, argv, starved):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert f"argument {starved}: expected one argument" in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["scan", "--c", "CI", "--n", "3", "--window", "-2..2"],
    ["scan", "--case", "CI", "--n", "3", "--window", "-2..2", "--st", "1/2"],
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "--form", "json"],
], ids=["--c for --case", "--st for --step", "--form for --format"])
def test_abbreviated_flags_are_rejected(capsys, argv):
    # Each would otherwise be taken as the one flag it begins.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "error:" in err.splitlines()[-1]


def test_classify_unicode_minus(capsys):
    a = classify_json(capsys, "--case", "EIII", "--c", "−2")
    b = classify_json(capsys, "--case", "EIII", "--c", "-2")
    assert a == b


def test_classify_pretty_mentions_verdict(capsys):
    code, out, _ = run_cli(capsys, "classify", "--case", "AIII", "--p", "2", "--q", "3",
                           "--c", "-1", "--format", "pretty")
    assert code == 0
    assert "AIII(2,3)" in out and "Reducible" in out and "witness" in out


def test_classify_simple_point_has_no_witness(capsys):
    payload = classify_json(capsys, "--case", "CI", "--n", "3", "--c", "1/7")
    assert payload["verdict"] == "Simple"
    assert payload["route"] == "empty_support"
    assert payload["witness"] is None and payload["surviving_classes"] == []


# Requests refused with exit 1, by the reader or by a command.
USAGE_ERRORS = [
    ["classify", "--case", "AIII", "--c", "1"],              # p, q missing
    ["classify", "--case", "BOGUS", "--c", "1"],
    ["classify", "--case", "CI", "--n", "1", "--c", "1"],
    ["classify", "--case", "EIII", "--c", "0.5"],
    ["classify", "--case", "EIII"],                          # c missing
    ["scan", "--case", "EIII", "--window", "1..0"],
    ["scan", "--case", "EIII", "--window", "nonsense"],
    ["scan", "--case", "CI", "--n", "2", "--window", "0..1", "--step", "0"],
    ["table", "--table", "5"],
    ["table", "--table", "1", "--a", "-2"],
    ["table", "--table", "3"],
    ["datum-dump", "--case", "DI"],
    ["nonsense-subcommand"],
    [],
    ["classify", "--case", "EIII", "--n", "3", "--c", "1"],
    ["classify", "--case", "CI", "--p", "2", "--c", "1"],
    ["classify", "--case", "AIII", "--p", "2", "--q", "2", "--n", "2", "--c", "1"],
    ["classify", "--case", "CI", "--n", "2..3", "--c", "1"],   # ranges: crosscheck only
    ["crosscheck", "--case", "CI", "--n", "3..2"],
    ["datum-dump", "--case", "CI", "--n", "21"],             # rank limit
    ["datum-dump", "--case", "AIII", "--p", "10", "--q", "11"],
    ["scan", "--case", "CI", "--n", "2", "--window", "-1000000..1000000",
     "--step", "1/1000"],                                    # grid limit
    ["scan", "--case", "CI", "--n", "2", "--window", f"0..{10**20}"],  # past sys.maxsize
    ["crosscheck", "--case", "CI", "--n", "2..3", "--window", "0..60000",
     "--step", "1"],                                         # family total
    # range ends take ASCII digits only, as every integer flag does
    ["crosscheck", "--case", "CI", "--n", "2..\u0663"],
    ["crosscheck", "--case", "AIII", "--p", "1_0..11", "--q", "1"],
    ["table", "--table", "\u0661"],
    ["classify", "--case=CI", "--n=3", "--c=1=2"],           # split at the first "="
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_1(capsys, argv):
    assert main(list(argv)) == 1
    capsys.readouterr()


# Integers and rationals take ASCII digits only: no underscores and no
# Arabic-Indic digits, which int() and \d would both read.
@pytest.mark.parametrize("argv, message", [
    (["classify", "--case", "CI", "--n", "1_0", "--c", "0"], "--n must be an integer, got '1_0'"),
    (["classify", "--case", "CI", "--n", "\u0663", "--c", "0"], "--n must be an integer, got '\u0663'"),
    (["classify", "--case", "CI", "--n", "2", "--c", "\u0661/\u0662"], "not a rational: '\u0661/\u0662'"),
    (["table", "--table", "\u0661"], "argument --table: invalid int value: '\u0661'"),
], ids=["underscore", "arabic-indic-n", "arabic-indic-c", "arabic-indic-table"])
def test_non_ascii_digits_keep_their_messages(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


# A valid value of each flag that the lone-"--" argvs below keep.
KEPT_VALUES = {"--case": "CI", "--n": "2", "--c": "0", "--window": "0..1", "--table": "4"}


@pytest.mark.parametrize(
    "command, flag",
    [(name, flag) for name, (_, _, flags) in cli._COMMANDS.items() for flag in flags],
    ids=lambda x: x,
)
def test_a_lone_double_dash_value_is_a_usage_error(capsys, command, flag):
    # "--" is the value of "--flag=--", which every flag refuses, by its
    # choices, its type or its command, naming the value.
    flags = cli._COMMANDS[command][2]
    argv = [command] + [f"{f}={v}" for f, v in KEPT_VALUES.items() if f in flags and f != flag]
    code, out, err = run_cli(capsys, *argv, f"{flag}=--")
    assert code == 1 and out == ""
    assert "'--'" in err and "Traceback" not in err


def test_signed_ascii_numbers_parse(capsys):
    a = classify_json(capsys, "--case", "CI", "--n", "+3", "--c", "\u22123/4")
    b = classify_json(capsys, "--case", "CI", "--n", "3", "--c", "-3/4")
    assert a == b and a["label"] == "CI(3)" and a["c"] == "-3/4"
    code, plus, _ = run_cli(capsys, "table", "--table", "+2", "--format", "tsv")
    assert code == 0
    assert run_cli(capsys, "table", "--table", "2", "--format", "tsv") == (0, plus, "")


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_classify_writes_c_in_lowest_terms(capsys, fmt):
    # c is read as its numerator and denominator in lowest terms, so each
    # text writes the bytes of its lowest form, as str writes the Fraction.
    flags = ("--case", "CI", "--n", "3", "--format", fmt)
    for typed, lowest in (("6/4", "3/2"), ("-0", "0"), ("+3/1", "3"), ("−7/6", "-7/6")):
        code, out, err = run_cli(capsys, "classify", *flags, "--c", typed)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "classify", *flags, "--c", lowest)[1]
        assert (f'"c": "{lowest}"' if fmt == "json" else f"c = {lowest}  ") in out


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="int() converts any length")
def test_a_rational_past_the_digit_limit_is_a_usage_error(capsys):
    # int() refuses more digits than its limit with its own message; the
    # command line gives the contract's, as it does for --n.
    big = "7" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "classify", "--case", "CI", "--n", "3", "--c", big)
    assert (code, out) == (1, "")
    assert err == f"error: not a rational: {big!r} (expected p or p/q)\n"


def test_a_case_is_built_once_for_its_parameters(capsys):
    # --n 3, 03 and +3 name one cached case, which scan and datum-dump
    # share; a refused case raises the same message every time and is not kept.
    cli._hermitian_case.cache_clear()
    cases = {cli._case(cli._read_argv(["classify", "--case", "CI", "--n", n, "--c", "0"])) for n in ("3", "03", "+3")}
    assert len(cases) == 1
    for argv in (["datum-dump", "--case", "CI", "--n", "03"], ["scan", "--case", "CI", "--n", "+3", "--window", "0..1"]):
        assert run_cli(capsys, *argv)[0] == 0
    # (hits, misses): one case built for five requests
    assert cli._hermitian_case.cache_info()[:2] == (4, 1)
    for flags in (["--case", "CI", "--n", "21"], ["--case", "AIII", "--n", "3"]):
        refusals = {run_cli(capsys, "classify", *flags, "--c", "0") for _ in range(3)}
        [(code, out, err)] = refusals
        assert (code, out) == (1, "") and err.startswith("error: ")
    assert cli._hermitian_case.cache_info().currsize == 1


def test_scan_tsv_golden(capsys):
    code, out, _ = run_cli(capsys, "scan", "--case", "CI", "--n", "2",
                           "--window", "-1..1", "--step", "1/2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case\tc\tz\tverdict\troute\tabc_screen\tclosed_form\tagree"
    assert lines[1:] == [
        "CI(2)\t-1\t1\tSimple\tsum_cancels\tknown_simple\tfalse\ttrue",
        "CI(2)\t-1/2\t3/2\tReducible\tsum_survives\tknown_reducible\ttrue\ttrue",
        "CI(2)\t0\t2\tReducible\tsum_survives\tknown_reducible\ttrue\ttrue",
        "CI(2)\t1/2\t5/2\tReducible\tsum_survives\tindeterminate\ttrue\ttrue",
        "CI(2)\t1\t3\tReducible\tsum_survives\tindeterminate\ttrue\ttrue",
    ]


def test_scan_grid_alignment(capsys):
    # the grid snaps to multiples of the step inside the window
    code, out, _ = run_cli(capsys, "scan", "--case", "DI", "--n", "3",
                           "--window", "-5/4..1/4", "--step", "1/2", "--format", "json")
    assert code == 0
    cs = [row["c"] for row in json.loads(out)["rows"]]
    assert cs == ["-1", "-1/2", "0"]


def test_scan_json_row_shape(capsys):
    code, out, _ = run_cli(capsys, "scan", "--case", "EIII",
                           "--window", "-3..-2", "--step", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "EIII"
    assert [row["verdict"] for row in payload["rows"]] == ["Reducible", "Reducible"]
    row = payload["rows"][0]
    assert set(row) == {"case", "c", "z", "verdict", "route", "abc_screen",
                        "closed_form", "agree"}
    assert row["agree"] is True


@pytest.mark.parametrize("window", ["-3..2", "1/3..1/2"], ids=["rows", "no-rows"])
def test_scan_json_is_one_indented_document(capsys, window):
    code, out, _ = run_cli(capsys, "scan", "--case", "CI", "--n", "2",
                           "--window", window, "--step", "1", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_scan_prints_each_row_as_decided(capsys, monkeypatch, fmt):
    # With blocks of two points, the rows of each block are out before the
    # next block is decided, and the bytes are those of one whole block.
    argv = ["scan", "--case", "CI", "--n", "2", "--window", "-1..1", "--step", "1/2",
            "--format", fmt]
    code, whole, _ = run_cli(capsys, *argv)
    assert code == 0
    printed = []
    decide = jantzen.ScalarGrid.decide

    def snapshot_then_decide(self, ms):
        printed.append(capsys.readouterr().out)
        return decide(self, ms)

    monkeypatch.setattr(cli, "GRID_BLOCK", 2)
    monkeypatch.setattr(jantzen.ScalarGrid, "decide", snapshot_then_decide)
    assert main(argv) == 0
    full = "".join(printed) + capsys.readouterr().out
    assert full == whole and len(printed) == 3
    for blocks, c in [(1, "-1/2"), (2, "1/2")]:
        before = "".join(printed[: blocks + 1])
        if fmt == "tsv":
            assert before.splitlines() == whole.splitlines()[: 2 * blocks + 1]
        else:
            head = json.loads(before + "\n  ]\n}")
            assert head["label"] == "CI(2)" and head["rows"][-1]["c"] == c
            assert len(head["rows"]) == 2 * blocks


def test_table_formats(capsys):
    code, tsv, _ = run_cli(capsys, "table", "--table", "1", "--format", "tsv")
    assert code == 0
    lines = tsv.splitlines()
    assert lines[0] == "pattern\te1\te2\te3\te4\te5"
    assert lines[1] == "+++++\t-9/2\t-7/2\t-5/2\t-3/2\t-1/2"
    assert len(lines) == 15

    code, pretty, _ = run_cli(capsys, "table", "--table", "1", "--format", "pretty")
    assert code == 0 and "pattern" in pretty and "+++++" in pretty

    code, js, _ = run_cli(capsys, "table", "--table", "3", "--a", "-7", "--format", "json")
    assert code == 0
    payload = json.loads(js)
    assert payload["table"] == 3
    assert payload["case"] == "EVII" and payload["a"] == "-7"
    assert payload["columns"] == ["pattern", "e6", "e7", "e8", "theta"]
    assert payload["rows"][0] == {"pattern": "-++++",
                                  "values": ["-13/2", "-1/2", "1/2", "-6"]}


def test_table4_default_parameter(capsys):
    code, explicit, _ = run_cli(capsys, "table", "--table", "4", "--a", "-7", "--format", "tsv")
    assert code == 0
    code, default, _ = run_cli(capsys, "table", "--table", "4", "--format", "tsv")
    assert code == 0
    assert explicit == default


def test_crosscheck_pass(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--case", "CI", "--n", "3",
                           "--window", "-4..4", "--step", "1/3")
    assert code == 0
    assert "crosscheck: PASS (1 instances, 25 points)" in out
    assert "mismatches=0" in out and "contradictions=0" in out


class Unscaled(Exception):
    pass


def test_scan_and_crosscheck_read_only_verdict_and_route(capsys, monkeypatch):
    # Building terms, classes and witness builds a jantzen.JantzenTerm per
    # term; rows that print only the verdict and route must never build one.
    commands = [
        ("crosscheck", "--case", "CI", "--n", "3"),
        ("scan", "--case", "CI", "--n", "3", "--window", "-4..4", "--step", "1/3",
         "--format", "json"),
    ]
    expected = [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in expected)
    assert '"route": "sum_survives"' in expected[1][1]

    def unscaled(*args):
        raise Unscaled

    monkeypatch.setattr(jantzen, "JantzenTerm", unscaled)
    assert [run_cli(capsys, *argv) for argv in commands] == expected
    with pytest.raises(Unscaled):
        jantzen.classify_scalar(HermitianCase("CI", n=3), -1)


def test_crosscheck_json(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--case", "DIII", "--n", "3",
                           "--window", "-2..2", "--step", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    inst = payload["instances"][0]
    assert inst["label"] == "DIII(3)" and inst["points"] == 9
    assert inst["mismatches"] == [] and inst["contradictions"] == []


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_crosscheck_disagreement_exits_2(capsys, monkeypatch, fmt):
    import scalarverma.cli as cli_mod

    # a constant-False stand-in disagrees on every reducible point
    monkeypatch.setattr(cli_mod, "closed_form_grid", lambda case, step, ms: [])
    code, out, _ = run_cli(capsys, "crosscheck", "--case", "CI", "--n", "2",
                           "--window", "-1..1", "--step", "1/2", "--format", fmt)
    assert code == 2
    if fmt == "pretty":
        assert "crosscheck: FAIL" in out
    else:
        payload = json.loads(out)
        assert payload["pass"] is False and payload["instances"][0]["mismatches"]
        assert out == json.dumps(payload, indent=2) + "\n"


def test_agree_is_false_wherever_the_two_sets_differ(capsys, monkeypatch):
    # a stand-in closed form holding every point disagrees exactly where the
    # oracle finds the point Simple
    monkeypatch.setattr(cli, "closed_form_grid", lambda case, step, ms: [ms])
    code, out, _ = run_cli(capsys, "scan", "--case", "CI", "--n", "2", "--window", "-2..1",
                           "--step", "1/2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(row["closed_form"] is True for row in rows)
    assert [row["agree"] for row in rows] == [row["verdict"] == "Reducible" for row in rows]
    assert {row["agree"] for row in rows} == {True, False}


# Fraction's arithmetic operators and its equality test
_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
    "__pow__", "__neg__", "__abs__", "__floor__", "__ceil__", "__round__", "__eq__",
)


def test_grid_requests_on_a_new_case_do_no_fraction_arithmetic(capsys, monkeypatch):
    # The datum, its view, (A, B, C), the default window, the grid's m and
    # the closed form and screen progressions come from integers; the
    # request builds Fractions only to write them, and compares none for
    # equality.  Order comparisons, such as the checks that the window is
    # not empty and the step positive, are not counted.  A cold classify
    # also writes its base point, z and certificate from integers.
    used = []
    for name in _FRACTION_ARITHMETIC:
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *args, _op=op, _name=name: used.append(_name) or _op(*args))
    cases = [["--case", "BI", "--n", "4"], ["--case", "EVII"], ["--case", "AIII", "--p", "2", "--q", "3"]]
    for flags in cases:
        for argv in (
            ["crosscheck", *flags, "--format", "json"],
            ["scan", *flags, "--window", "-9/2..11/3", "--step", "2/7", "--format", "json"],
            ["classify", *flags, "--c", "-3/2", "--format", "json"],
            ["classify", *flags, "--c", "-3/2", "--format", "pretty"],
        ):
            build_datum.cache_clear()
            ehw.abc_constants.cache_clear()
            ehw.line_offset.cache_clear()
            cli._classify_case.cache_clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out
    assert used == []


def test_one_closed_form_set_per_case(capsys):
    # the closed form's starts come from the case's cached (A, B, C)
    ehw.abc_constants.cache_clear()
    code, out, _ = run_cli(capsys, "scan", "--case", "CI", "--n", "5",
                           "--window", "-40..20", "--step", "1/60")
    assert code == 0 and len(out.splitlines()) == 1 + 3601
    assert ehw.abc_constants.cache_info().misses == 1
    code, _, _ = run_cli(capsys, "crosscheck", "--case", "CI", "--n", "2..6")
    assert code == 0
    # CI(5) is already built; CI(2), CI(3), CI(4) and CI(6) are not
    assert ehw.abc_constants.cache_info().misses == 5


def test_one_line_offset_per_case(capsys):
    ehw.line_offset.cache_clear()
    ehw.abc_constants.cache_clear()
    cli._classify_case.cache_clear()
    for c in ("-2", "0", "1/2", "-2"):
        code, _, _ = run_cli(capsys, "classify", "--case", "DIII", "--n", "4", "--c", c)
        assert code == 0
    code, _, _ = run_cli(capsys, "crosscheck", "--case", "DIII", "--n", "4")
    assert code == 0
    code, _, _ = run_cli(capsys, "classify", "--case", "DIII", "--n", "4", "--c", "3")
    assert code == 0
    # scan writes z = c + B from the same cached offset
    hits = ehw.line_offset.cache_info().hits
    code, _, _ = run_cli(capsys, "scan", "--case", "DIII", "--n", "4", "--window", "-3..1")
    assert code == 0
    assert ehw.line_offset.cache_info().hits > hits
    assert ehw.line_offset.cache_info().misses == 1
    assert ehw.abc_constants.cache_info().misses == 1
    # classify's per-case parts, its base point in both formats among
    # them, are written once, for the first request
    assert cli._classify_case.cache_info().misses == 1


# Strings with quotes, backslashes, control characters and non-ASCII text
_json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀') | st.characters())
_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _json_text
)
# Weights as cli writes them: tuples of their coordinates' texts, with
# negative, zero and non-unit-denominator coordinates.
_json_weights = st.lists(
    st.builds(lambda p, q: str(Q(p, q)), st.integers(-(2**70), 2**70), st.integers(1, 12)),
    max_size=6,
).map(tuple)
_json_payloads = st.recursive(
    _json_scalars | _json_weights,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
def test_writer_matches_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(_as_lists(payload), indent=2)


def _as_lists(obj):
    """obj with every tuple, at any depth, turned into a list."""
    if isinstance(obj, (list, tuple)):
        return [_as_lists(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    return obj


@given(st.integers(-(2**70), 2**70), st.integers(1, 2**40))
@example(0, 7)
def test_ratios_write_as_str_writes_the_fraction(m, den):
    # The one memo that writes an integer over a denominator: each text once
    texts = cli._Ratios(den)
    assert texts[m] == str(Q(m, den))
    assert texts[m] is texts[m] and list(texts) == [m]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_classify_makes_a_memo_only_for_a_class(capsys, monkeypatch, fmt):
    # With the case's parts cached, a request whose certificate holds no
    # class makes no _Ratios memo: CI(3) at c = 1/7 has an empty support,
    # and at c = -2 two support roots, both on walls.  A request whose
    # certificate holds a class makes exactly one.
    argv = ["--case", "CI", "--n", "3", "--c"]
    points = ["1/7", "-2", "-1/2"]
    # (route, support, walls, classes) of each point, which caches the case's parts
    shapes = [
        (p["route"], p["s_lambda_size"], len(p["singular"]), len(p["classes"]))
        for p in (classify_json(capsys, *argv, c) for c in points)
    ]
    assert shapes == [("empty_support", 0, 0, 0), ("sum_cancels", 2, 2, 0), ("sum_survives", 3, 0, 3)]
    made = []

    class Ratios(cli._Ratios):
        def __init__(self, den):
            made.append(den)
            super().__init__(den)

    monkeypatch.setattr(cli, "_Ratios", Ratios)
    for c, (_, _, _, classes) in zip(points, shapes):
        made.clear()
        assert run_cli(capsys, "classify", *argv, c, "--format", fmt)[0] == 0
        assert len(made) == min(classes, 1), (c, made)


@pytest.mark.parametrize(
    "payload",
    [Q(1, 2), 0.5, {1: "x"}, [{"a": [Q(1)]}], {"a": {None: 1}}, [("1/2", Q(1, 2))]],
    ids=["fraction", "float", "int-key", "nested-fraction", "nested-none-key", "weight-fraction"],
)
def test_writer_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._dumps(payload)


def test_invariant_violation_exits_3(capsys, monkeypatch):
    def boom(view, n, d):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "_classify_point", boom)
    for fmt in ("pretty", "json"):
        code, out, err = run_cli(capsys, "classify", "--case", "EIII", "--c", "-2", "--format", fmt)
        assert (code, out) == (3, "")
        assert "invariant" in err.lower()


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_classify_invariant_violation_exits_3(capsys, monkeypatch, fmt):
    # BI(3) at c = -1 holds a two-member class, which a theta_u that is not
    # Levi fixed splits; classify's walk raises, as the grid decision does.
    # The crippled copy's groups hold that theta_u, so its view scales it.
    build = cli.build_datum
    monkeypatch.setattr(cli, "build_datum", lambda case: replaced(build(case), theta_u=weight([0, 1, 0])))
    cli._classify_case.cache_clear()
    try:
        code, out, err = run_cli(capsys, "classify", "--case", "BI", "--n", "3", "--c", "-1",
                                 "--format", fmt)
    finally:
        cli._classify_case.cache_clear()
    assert (code, out) == (3, "")
    assert err == "internal invariant violation: one chamber class carries two theta values\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--case", "BI", "--n", "3", "--window", "-6..3", "--step", "1/2"],
    ["crosscheck", "--case", "BI", "--n", "2..3", "--format", "json"],
], ids=["scan", "crosscheck"])
def test_grid_invariant_violation_exits_3(capsys, monkeypatch, argv):
    # BI(3) at c = -1 holds a two-member class, which a theta_u that is not
    # Levi fixed splits; the grid decision's theta check raises.
    build = cli.build_datum

    def crippled(case):
        datum = build(case)
        if case.label != "BI(3)":
            return datum
        return replaced(datum, theta_u=weight([0, 1, 0]))

    monkeypatch.setattr(cli, "build_datum", crippled)
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "invariant" in err.lower() and "two theta values" in err


def test_datum_dump_keys(capsys):
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "DIII", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"case", "label", "ambient_dim", "simple_roots",
                            "levi_simples", "noncompact_simple",
                            "nilradical_roots", "rho", "gamma", "zeta", "theta_u"}
    assert payload["label"] == "DIII(3)"
    assert payload["ambient_dim"] == 3
    assert payload["zeta"] == ["1/2", "1/2", "1/2"]


_WEIGHT_FIELDS = ("noncompact_simple", "rho", "gamma", "zeta", "theta_u")
_WEIGHT_LIST_FIELDS = ("simple_roots", "levi_simples", "nilradical_roots")


def test_every_datum_dump_round_trips(capsys):
    for case in ADMISSIBLE_CASES:
        code, out, _ = run_cli(capsys, "datum-dump", *case_flags(case))
        assert code == 0, case.label
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n", case.label
        datum = build_datum(case)
        for field in _WEIGHT_FIELDS:
            assert _parsed(payload[field]) == getattr(datum, field), (case.label, field)
        for field in _WEIGHT_LIST_FIELDS:
            assert tuple(map(_parsed, payload[field])) == tuple(getattr(datum, field)), (
                case.label, field)


def _parsed(coords):
    """A dumped weight read back, coordinate by coordinate; each must be a string."""
    return tuple(map(parse_rational, coords))


def test_datum_dump_formats_per_dimension_not_per_coordinate(capsys, monkeypatch):
    # Every weight is written from the datum's integers, each distinct
    # numerator of a group once: a warm datum-dump makes and formats no
    # Fraction.
    case = HermitianCase("CI", n=20)
    build_datum(case)
    made = []
    new, text = Fraction.__new__, Fraction.__str__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    monkeypatch.setattr(Fraction, "__str__", lambda self: made.append(self) or text(self))
    code, out, _ = run_cli(capsys, "datum-dump", *case_flags(case))
    monkeypatch.undo()
    assert (code, made) == (0, [])
    payload = json.loads(out)
    assert payload["nilradical_roots"][0] == ["0"] * 19 + ["2"]
    assert payload["zeta"] == ["1"] * 20 and payload["rho"] == [str(i) for i in range(20, 0, -1)]


def test_datum_dump_never_writes_a_stale_record(capsys, monkeypatch):
    # A datum is its groups, and a tampered copy's groups are made from its
    # own fields: its roots are written, never those of the datum it was
    # made from.
    build = cli.build_datum
    tampered = weight([3, 0, 0])
    roots = build_datum(HermitianCase("CI", n=3)).nilradical_roots
    assert tampered not in roots
    monkeypatch.setattr(
        cli, "build_datum", lambda case: replaced(build(case), nilradical_roots=(tampered,) + roots[1:])
    )
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "CI", "--n", "3")
    assert code == 0
    written = json.loads(out)["nilradical_roots"]
    assert tuple(map(_parsed, written)) == (tampered,) + roots[1:]


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_classify_formats_no_root_coordinate(capsys, monkeypatch, fmt):
    # Every root classify writes, support term, class member or witness,
    # takes its strings from the datum's groups: a request with
    # classify's per-case parts cold formats none of the roots' coordinates.
    case = HermitianCase("CI", n=20)
    datum = build_datum(case)
    cli._classify_case.cache_clear()
    made = []
    original = Fraction.__str__

    def counting(self):
        made.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__str__", counting)
    code, out, _ = run_cli(capsys, "classify", *case_flags(case), "--c", "0", "--format", fmt)
    monkeypatch.undo()
    assert code == 0
    coords = {id(x) for root in datum.positive_roots for x in root}
    assert not [x for x in made if id(x) in coords]
    # and the roots are written: the witness is e1 + e2
    witness = ["1", "1"] + ["0"] * 18
    if fmt == "json":
        assert json.loads(out)["witness"] == witness
    else:
        assert f"witness: [{', '.join(witness)}]\n" in out


def test_classify_pretty_writes_each_member_root(capsys):
    # BI(3) at c = -1 holds a two-member class: the pretty certificate
    # lists each member's own root and parity, as the JSON one does.
    argv = ("--case", "BI", "--n", "3", "--c", "-1")
    classes = classify_json(capsys, *argv)["classes"]
    assert any(len(g["members"]) > 1 for g in classes)
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    got = [line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("  class rep")]
    assert got == [
        ", ".join(f"[{', '.join(m['beta'])}] ({m['parity']})" for m in g["members"]) for g in classes
    ]


# Both of classify's writers, from the integer decision, against the
# record-based reference writers: at levels near 10**12 and 10**40, the
# packed keys and the coordinates' gcds are big integers.
WIDE_POINTS = (Q(10**12), Q(10**40))
WRITER_POINTS = (Q(-3), Q(-1, 2), Q(0), Q(5, 2))
RANK_20 = [HermitianCase(tag, n=20) for tag in ("CI", "DIII", "BI", "DI")] + [
    HermitianCase("AIII", p=10, q=10)
]


def _sweep19_lattice(case: HermitianCase) -> list[Fraction]:
    """The c of the case's default crosscheck window, z = A - 5 .. B + 10, at step 1/6."""
    con = ehw.abc_constants(case)
    step = Q(1, 6)
    lo, hi = con.a - con.b - 5, Q(10)
    return [m * step for m in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def _assert_writers_match_reference(case: HermitianCase, points) -> None:
    datum = build_datum(case)
    for c in points:
        verdict = jantzen.classify_scalar(datum, c)
        pair = c.as_integer_ratio()
        assert cli._classify(case, pair, "json") == classify_json_reference(datum, c, verdict), (case.label, c)
        assert cli._classify(case, pair, "pretty") == classify_pretty_reference(datum, c, verdict), (case.label, c)


@pytest.mark.parametrize("case", SWEEP_CASES, ids=lambda case: case.label)
def test_classify_writers_match_reference_on_sweep19(case):
    _assert_writers_match_reference(case, _sweep19_lattice(case) + list(WIDE_POINTS))


@pytest.mark.parametrize("case", RANK_20, ids=lambda case: case.label)
def test_classify_writers_match_reference_at_rank_20(case):
    _assert_writers_match_reference(case, WRITER_POINTS)


@pytest.mark.slow
@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.label)
def test_classify_writers_match_reference_on_every_case(case):
    _assert_writers_match_reference(case, WRITER_POINTS + WIDE_POINTS)


def test_classify_writes_no_record_and_no_fraction_per_term(capsys, monkeypatch):
    # A warm classify writes its certificate from the walk's integers: it
    # builds no jantzen record, and makes and formats no Fraction at CI(20),
    # whose 210 roots are all in the support at c = 0, nor at CI(3).  Its
    # case comes from the process's cache, so it builds no HermitianCase.
    records = []
    cases = []
    init = HermitianCase.__init__
    monkeypatch.setattr(HermitianCase, "__init__", lambda self, *args, **kw: cases.append(args) or init(self, *args, **kw))
    for name in ("JantzenTerm", "RepClass", "SimplicityVerdict", "ChamberForm"):
        made = getattr(jantzen, name)
        monkeypatch.setattr(jantzen, name, lambda *args, made=made: records.append(made) or made(*args))
    new, text = Fraction.__new__, Fraction.__str__
    counts = {"new": 0, "str": 0}

    def counting_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counting_str(self):
        counts["str"] += 1
        return text(self)

    seen = {}
    for case in (HermitianCase("CI", n=3), HermitianCase("CI", n=20)):
        for fmt in ("json", "pretty"):
            argv = ("classify", *case_flags(case), "--c", "0", "--format", fmt)
            assert run_cli(capsys, *argv)[0] == 0
            monkeypatch.setattr(Fraction, "__new__", counting_new)
            monkeypatch.setattr(Fraction, "__str__", counting_str)
            counts.update(new=0, str=0)
            cases.clear()
            code, out, _ = run_cli(capsys, *argv)
            monkeypatch.setattr(Fraction, "__new__", new)
            monkeypatch.setattr(Fraction, "__str__", text)
            assert code == 0 and "sum_survives" in out
            assert cases == [], (case.label, fmt)
            seen[case.n, fmt] = dict(counts)
    assert records == []
    # c and z are read and written as integers
    assert seen == dict.fromkeys(seen, {"new": 0, "str": 0}), seen


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_classify_never_writes_a_root_without_the_record(capsys, monkeypatch, fmt):
    # As datum-dump: every datum holds its groups, and a copy rebuilt from
    # its fields writes its own roots, the bytes the datum itself writes.
    argv = ("classify", "--case", "CI", "--n", "3", "--c", "0", "--format", fmt)
    want = run_cli(capsys, *argv)
    build = cli.build_datum
    monkeypatch.setattr(cli, "build_datum", lambda case: replaced(build(case)))
    cli._classify_case.cache_clear()
    try:
        got = run_cli(capsys, *argv)
    finally:
        cli._classify_case.cache_clear()
    assert got == want and want[0] == 0


def test_datum_dump_notes_on_degenerate_case(capsys):
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "DI", "--n", "2")
    assert code == 0
    assert json.loads(out).get("notes")
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "DI", "--n", "3")
    assert code == 0
    assert "notes" not in json.loads(out)


# sha256 of "<exit code>\n<stdout>" per invocation: every format of every
# subcommand, byte for byte.  A changed digest is a changed output contract.
PINNED_OUTPUTS = [
    ("classify --case AIII --p 2 --q 3 --c -1",
     "e38a22b4a9ffdf489d88c5d3b166bb93f315099d67cf821ff634bb7478f009fa"),
    ("classify --case AIII --p 2 --q 3 --c -1 --format json",
     "bef486403607666f6c7887fae5e198ae18ac99bc20931d6470832885701bc978"),
    ("classify --case CI --n 2 --c -1/2 --format json",
     "af765183c6b93ddd11d3da7d0bee8ec69772dbebd30261bf5a3a050ffde80107"),
    ("classify --case CI --n 3 --c 1/7 --format json",
     "9f6928c03be80fe37ada2f728e343578cd8ebab8f191e53764db4c89164d22b1"),
    ("classify --case BI --n 3 --c 1/2",
     "8fea14aa7bcdc3dc23f54a4e57ac810e0c35db86c4fe9a1dfa7463f463f405c0"),
    ("classify --case DI --n 2 --c -1 --format json",
     "7460d1f6055cc9dcf888c8f44162b163b1de78ed4edfed5c7f5b7c2c75e3288f"),
    ("classify --case DIII --n 4 --c 0 --format json",
     "593e6ce41e57c84f60d8448868b623f211840040161d0fe01882611bf5c4ddbb"),
    # certificates of long Levi descents at ambient dimension 20
    ("classify --case CI --n 20 --c 0 --format json",
     "c097c8822e04f1cfcccffd153010c228b8217389cfed5e0f7db56e73bf684bfb"),
    ("classify --case DIII --n 20 --c 0 --format json",
     "6aeca5ef3061d0a2d8500eeed6c59b7ca0d979301853fb74ae1d9609da7b87c5"),
    ("classify --case AIII --p 10 --q 10 --c -3 --format json",
     "6468c7ee8d002e4a4f265d7f2608f6f0cfd3ba101ac04110ac76c4cb70af4cb7"),
    ("classify --case BI --n 20 --c 1/2 --format json",
     "69926a1cef179b068963d4dc1a3b0778365ce1aa50f6ee1760c84130fe5766c4"),
    ("classify --case EIII --c -2",
     "5475d345f7ac0a4827bb290890d6a83584136e48e8a868b8488e5bd8c9df93d2"),
    ("classify --case EIII --c −2 --format json",
     "b44ca4f732c7ffc60849918ed7041c2f0be07e9d2cfb5c4160576da5b82c2095"),
    ("classify --case EVII --c -9 --format json",
     "27d44e85c263f36802e3a4eb30f275704d2d2f77f7fdb356f85b6919a31a5491"),
    # pretty certificates: every support root on a wall; full support with
    # 27 classes; walls and classes mixed; the degenerate Levi of DI(2)
    ("classify --case EVII --c -9",
     "437bfc3eac70b8da7a650833183c8456cd17ac19be3dd513e34fe822c35e3e58"),
    ("classify --case EVII --c 9",
     "f9f22a579682afca24c5b789ac157284990701f83a9b934e45dd45a2f79c557c"),
    ("classify --case EVII --c -3",
     "62f156ed881947ac4acd402491bb6f50a147370d0c1fbf0f6eb105ad352e13a5"),
    ("classify --case DI --n 2 --c 0",
     "b312f8c8d656fed1025765da87489d5897f084d986696903b4d721554e8b2fa6"),
    ("scan --case CI --n 2 --window -1..1 --step 1/2",
     "80ade84818edc6cd0b0eb2c208779e25013962cb7af6c65b14a056d332f5f8f5"),
    ("scan --case CI --n 2 --window -1..1 --step 1/2 --format json",
     "08ad982470a414f5002104afc8339a3f051420b2197d7918bfe08ed48a21adbb"),
    ("scan --case DI --n 3 --window -5/4..1/4 --step 1/2 --format json",
     "2aff5ffa805cfbf84f6fbb56c81c253edfc6cbab962cce7045bbdfab3404a5f5"),
    ("scan --case AIII --p 2 --q 2 --window -4..1 --step 1/3",
     "e5b805bd763c32c202c4b14f0fcb5f79652a43379f2be37ca17ea451453af3f1"),
    ("scan --case EIII --window -3..-2 --step 1 --format json",
     "645a6e4a22869b3999a87dfae1c617b719503a00e312d4ebfd82eef3852b529c"),
    ("scan --case DIII --n 4 --window -3..0 --format json",
     "b2d67a7611396bb42adb0d99ed63184f72d68f5bb6830b92f84be3cafe404112"),
    ("table --table 1",
     "97e8d963d2013943f9721cca8a8709cfaf0a86afe26b50421d9b766776aa4962"),
    ("table --table 1 --format tsv",
     "3eee4cd1a7ad4142791b018f73d5d4d83e3fb9f438b8bac8901896e6c0d89238"),
    ("table --table 1 --format json",
     "fb13001967c66802ed1232b840d21f2ef7f35415a9bc60cd707563419e8ef3a0"),
    ("table --table 2",
     "8a9a481bdc0bb6462ef5019a900153b99edd18611647d8917d55c79cadaabe1b"),
    ("table --table 2 --format tsv",
     "2135c4421cbc6abc8a0192cd1ec8dd772704fe2c5592b2d4bf533fb8b7a03ce6"),
    ("table --table 2 --format json",
     "501237c50a64601fd5e48c8bfa165b21dcfbbad7c998a6ee22c32c3afb242c12"),
    ("table --table 3 --a -7",
     "02e8f64f99cb2b0afc80671b252423d9f7c3010f476dee86dfc244c47d619494"),
    ("table --table 3 --a 1/2 --format tsv",
     "db16d4b838fde5b14e230923c4f3a4e4d9347da32e8b7bb87764d0d6b10326e1"),
    ("table --table 3 --a -7 --format json",
     "e4dee6f6d6430eb8ef1ba8ea6b88e6f5f40c0e5001fad5b5b46194fd39f0394a"),
    ("table --table 4",
     "4582e23f389d51db56eb562f86303f80e140f0268e62765115556719d75bd92b"),
    ("table --table 4 --a -6 --format tsv",
     "99a721e371ab38566e818a35f1adb5210a962e7b3063cad3412fde9fda24b093"),
    ("table --table 4 --format json",
     "c8f146e9d5da28e3057cba9ca5f71ed292799aa21cc357bda39ec3ddc666fe89"),
    ("crosscheck --case CI --n 2..4 --window -2..2 --step 1/2",
     "dd114b300e7d53730eeb2aa389fa3b1cb47c1039910cc498887cffe3f40027db"),
    ("crosscheck --case AIII --p 1..2 --q 2..3 --window -2..1 --format json",
     "0faf586cccf85d59f3dbe6a928a188d9f90f6ff8239e83401bd1c1393caa65f6"),
    ("crosscheck --case DIII --n 3",
     "938425194760b8db306869d316ca1261680ab272dfc938078a1884ffe99ae0c9"),
    ("crosscheck --case EIII --window -3..-2 --step 1/2 --format json",
     "4c3cebaf62335f85691b8fcc55bc65a4ac4d06370fbec94a1779cdba69085b73"),
    ("datum-dump --case DI --n 2",
     "3f685bdc6de178198d9edf70ec6bdc6fc8baa46fcaf02e66afe0324f59794781"),
    ("datum-dump --case DIII --n 2",
     "6b96002848d35b64ac45c94de0df6e5a4f17da3889f18ce90da2bdb0f3e0a710"),
    ("datum-dump --case AIII --p 2 --q 3",
     "516aa2b8beaf51c517e905f8eaf7381528522705cac853692e7ea63c77183540"),
    ("datum-dump --case CI --n 4",
     "b268d8d2fb2ae618d94bb51f2068a9499e08a63860f08e29d8c96e79bc3eec2b"),
    ("datum-dump --case EVII",
     "0a3105fa8978c66578e705902daca2cf425e08f973a6f61857c88f9d331e748a"),
    ("classify --case AIII --c 1",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("crosscheck --case CI --n 3..2",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("datum-dump --case CI --n 20",
     "59fd6d634ca1af2c76b97bbaa93cac02912e4fad0e85d26a9bc721fce30ca7e3"),
    ("datum-dump --case BI --n 20",
     "64d7bce3ccedb091c0f2caeed092cb2fd0bb07f44bfab2655113d465fb8bb5b1"),
    ("datum-dump --case DI --n 20",
     "7045a3d6c40f42446b402acb3de13a43ec3e34bc54e48718205b3f8d5bd899e1"),
    ("datum-dump --case DIII --n 20",
     "c5bac4fe3b191bd08f239b3e6dc1070eb4396abc65a55d4e3c0843f4f85dd5db"),
    ("datum-dump --case AIII --p 10 --q 10",
     "948580eb28a54da88d3d8f8f52c314155599d770bac08aca3fa9574445145b34"),
    ("datum-dump --case AIII --p 1 --q 19",
     "3d6c0e27465984e8be6c015af79eeb23a72724b3945b80ac99ae2a7140568a34"),
    # the residue walk: one point per class of m mod 5000 in each block of
    # 4,096; a step s/t with s > 1; many points per class; a family
    ("scan --case CI --n 2 --window -1..1 --step 1/5000 --format json",
     "87e015b166cee20cc11ad001be750ef2d62535396b1fea889120d2fb2df44bdd"),
    ("scan --case EVII --window -14..3 --step 3/7",
     "2c97cb916612b887d68644cbab3d00eab523b7ce1a0e2ecf57e8611bba705ffc"),
    ("scan --case AIII --p 2 --q 3 --window -300..300 --step 1/7 --format json",
     "a41e281a458ed42fbe99a8003a99e984a85c5d91d18b01d6ee4437590f6e2671"),
    ("crosscheck --case DIII --n 2..6 --step 1/97",
     "da58ef155dfd696f71446081e1e292e5cf78e42473ac46312872ecca63e447d5"),
    # the benchmark's finegrid scans, 60 residue classes of m per block, and
    # a TSV scan of 6,001 points whose second block starts 16 points into
    # its classes' cycle (4,096 mod 60)
    ("scan --case AIII --p 3 --q 4 --window -40..20 --step 1/60 --format json",
     "9a143ffe61d34610df433978ba34e8dbb50b4d47591083edb632f68c94419933"),
    ("scan --case CI --n 5 --window -40..20 --step 1/60 --format json",
     "3bb76500fc169958bfd5638967fdf9ef1ad876a65b576d0ab60c067f7cc45f25"),
    ("scan --case DIII --n 6 --window -40..20 --step 1/60 --format json",
     "0b2e2b1036dde258befd1adb49f60c494aa3d8b5726d406daa67af59149c25c3"),
    ("scan --case AIII --p 3 --q 4 --window -40..60 --step 1/60",
     "32c00b8e3b2502162a3ebf342bc602ad02fbeaf673b6646b9ab4a94628def686"),
]


def test_output_bytes_pinned(capsys):
    changed = []
    for line, digest in PINNED_OUTPUTS:
        code, out, _ = run_cli(capsys, *line.split())
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != digest:
            changed.append(line)
    assert changed == []


# The sha256 of "<exit code>\n<stdout>" of two grid requests on each
# admissible case, in ADMISSIBLE_CASES order: crosscheck with its default
# window, which starts at A - B - 5, and scan across the screen's bounds at
# step 1/7, whose grid holds the integer closed-form starts but not the
# half-integer ones.
GRID_PATH_SHA256 = "ee7e903288436fecfa868e7da96c1f10b994aef84312149e05ed45e8111f9850"


def test_grid_path_bytes_pinned_on_every_case(capsys):
    digest = hashlib.sha256()
    for case in ADMISSIBLE_CASES:
        flags = case_flags(case)
        for argv in (
            ["crosscheck", *flags, "--format", "json"],
            ["scan", *flags, "--window", "-9/2..11/3", "--step", "1/7", "--format", "json"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GRID_PATH_SHA256


# The sha256 of "<exit code>\n<stdout>" of classify on each sweep case at
# c = m/2, m in -20..10, in both formats, in SWEEP_CASES order.
CLASSIFY_SWEEP_SHA256 = "8aabbcfc93a167c7bc7af30e0c55830f62b0cc2eddbd4f474121acef178fba62"


def test_classify_takes_none_of_the_grid_walk(capsys, monkeypatch):
    # classify keys each class by its representative itself: it walks no
    # progression, takes no packing width and packs nothing, and prints
    # the same bytes.
    def refuse(*args):
        raise AssertionError("the grid's walk on the one-point path")

    for name in ("_pack", "_line_width", "_walk"):
        monkeypatch.setattr(jantzen, name, refuse)
    digest = hashlib.sha256()
    for case in SWEEP_CASES:
        for m in range(-20, 11):
            for fmt in ("json", "pretty"):
                code, out, _ = run_cli(capsys, "classify", *case_flags(case), "--c", str(Q(m, 2)), "--format", fmt)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLASSIFY_SWEEP_SHA256



# The sha256 of the stdout of datum-dump on each admissible case, in
# ADMISSIBLE_CASES order: every weight's text, which a check on the parsed
# values alone would pass written as "2/4" for "1/2".
DATUM_DUMP_SHA256 = "59d3f9dda0ce8c96c00454b990275c56a2b1e63bd236e11553dfcc0f7d4b0a5b"


def test_every_datum_dump_bytes_pinned(capsys):
    digest = hashlib.sha256()
    for case in ADMISSIBLE_CASES:
        code, out, _ = run_cli(capsys, "datum-dump", *case_flags(case))
        assert code == 0, case.label
        digest.update(out.encode())
    assert digest.hexdigest() == DATUM_DUMP_SHA256


class _Poisoned:
    """Stands in for a datum's Fraction field, and raises on any use of it."""

    def __init__(self, name):
        self.name = name

    def _use(self, *args):
        raise AssertionError(f"a request read the datum's {self.name}")

    __getattr__ = __iter__ = __len__ = __getitem__ = __contains__ = __reversed__ = _use
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = __bool__ = _use
    __repr__ = __str__ = __format__ = __index__ = __int__ = __float__ = _use
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _use


# The datum's Fraction root and weight fields; a request reads none of them.
_FRACTION_FIELDS = (
    "simple_roots", "levi_simples", "noncompact_simple", "positive_roots", "levi_positive",
    "nilradical_roots", "rho", "gamma", "zeta", "theta_u",
)
# both degenerate D2 cases, rank 20, and E6 and E7
_UNREAD_CASES = [
    HermitianCase("AIII", p=2, q=3), HermitianCase("AIII", p=1, q=1), HermitianCase("CI", n=4),
    HermitianCase("BI", n=3), HermitianCase("DI", n=2), HermitianCase("DIII", n=2),
    HermitianCase("DI", n=5), HermitianCase("EIII"), HermitianCase("EVII"), HermitianCase("CI", n=20),
]


def test_requests_read_no_fraction_field_of_the_datum(capsys, monkeypatch):
    # Each datum the build returns is made from the built datum's case and
    # groups, with its ten Fraction fields set, before any read derives them,
    # to values that raise on any use: classify, scan, crosscheck and
    # datum-dump write the same bytes and exit codes from the groups alone.
    # table reads the library's Fraction path by design.
    argvs = []
    for case in _UNREAD_CASES:
        flags = case_flags(case)
        for c, fmt in (("-1", "json"), ("-1", "pretty"), ("0", "json"), ("0", "pretty")):
            argvs.append(["classify", *flags, "--c", c, "--format", fmt])
        for fmt in ("json", "tsv"):
            argvs.append(["scan", *flags, "--window", "-7/2..3", "--step", "1/4", "--format", fmt])
        for fmt in ("json", "pretty"):
            argvs.append(["crosscheck", *flags, "--format", fmt])
        argvs.append(["datum-dump", *flags])
    want = [run_cli(capsys, *argv) for argv in argvs]
    derive = rootdata._derive

    def poisoned(case):
        datum = derive(case)
        copy = rootdata.ParabolicRootDatum(case, datum.groups)
        for name in _FRACTION_FIELDS:
            set_field(copy, name, _Poisoned(name))
        return copy

    clear_request_caches()
    monkeypatch.setattr(rootdata, "_derive", poisoned)
    try:
        got = [run_cli(capsys, *argv) for argv in argvs]
    finally:
        monkeypatch.undo()
        clear_request_caches()
    for argv, result, expected in zip(argvs, got, want):
        assert result == expected, " ".join(argv)
    assert {code for code, _, _ in want} == {0}


@pytest.mark.parametrize("argv, message", [
    (["scan", "--case", "CI", "--n", "20", "--window", "0..99999/2", "--step", "1/2"],
     "20000000 support terms requested, over 1000000"),
    # each case alone is within the budget, the family is not
    (["crosscheck", "--case", "CI", "--n", "18..20", "--window", "0..1500", "--step", "1/2"],
     "1628071 support terms requested, over 1000000"),
], ids=["scan", "crosscheck-family"])
def test_support_terms_are_counted_before_any_point_is_decided(capsys, monkeypatch, argv, message):
    def decide(self, ms):
        raise AssertionError("a point was decided before the terms were counted")

    monkeypatch.setattr(jantzen.ScalarGrid, "decide", decide)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_term_budget_admits_the_readme_grid():
    # README's 100,000-point CI(20) scan, and each case of the family above
    case = HermitianCase("CI", n=20)
    [(ms, line)] = cli._grids([case], [(Q(-50), Q(49999, 1000))], Q(1, 1000))
    assert len(ms) == 100_000 and line.terms(ms) == 23_990
    for n in (18, 19, 20):
        [(ms, line)] = cli._grids([HermitianCase("CI", n=n)], [(Q(0), Q(1500))], Q(1, 2))
        assert line.terms(ms) <= cli.MAX_SUPPORT_TERMS


def test_scan_checks_its_grid_before_building_the_datum(capsys, monkeypatch):
    calls = []

    def build(case):
        calls.append(case)
        raise AssertionError("build_datum called before the grid was checked")

    monkeypatch.setattr(cli, "build_datum", build)
    monkeypatch.setattr(ehw, "build_datum", build)
    code, out, err = run_cli(capsys, "scan", "--case", "CI", "--n", "20",
                             "--window", "0..1", "--step", "0")
    assert code == 1 and "step must be positive" in err
    # crosscheck with an explicit window needs no abc_constants, so it too
    # counts all its cases' points first
    code, out, err = run_cli(capsys, "crosscheck", "--case", "AIII", "--p", "1..10",
                             "--q", "1..10", "--window", "0..100", "--step", "1/1000")
    assert code == 1 and "10000100 grid points requested" in err
    # without --window, each default window holds -5..10, so the family is
    # refused on that lower bound before abc_constants builds a datum
    code, out, err = run_cli(capsys, "crosscheck", "--case", "AIII", "--p", "1..10",
                             "--q", "1..10", "--step", "1/1000")
    assert code == 1 and out == ""
    assert err == "error: at least 1500100 grid points requested, over 100000\n"
    assert calls == []


def test_output_is_deterministic(capsys):
    args = ["scan", "--case", "EVII", "--window", "-9..-5", "--step", "1/2",
            "--format", "tsv"]
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def _module_env(**variables: str) -> dict[str, str]:
    """This process's environment with variables set, in which a child
    imports the same package as this process, installed or not."""
    src = str(Path(scalarverma.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **variables}


def test_entry_point_subprocess():
    # byte-for-byte stability across processes, through `python -m
    # scalarverma.cli`; CI checks the installed console script against it
    cmd = [sys.executable, "-m", "scalarverma.cli", "table", "--table", "2",
           "--format", "tsv"]
    runs = {
        subprocess.run(cmd, capture_output=True, check=True, env=_module_env()).stdout for _ in range(2)
    }
    assert len(runs) == 1
    assert next(iter(runs)).startswith(b"pattern\te1")


def test_closed_pipe_exits_1_without_traceback():
    # `scan ... | head -1`: the reader closes the pipe after the first row of
    # about 200 KB, more than a pipe buffers, so the writer meets it closed.
    cmd = [sys.executable, "-m", "scalarverma.cli", "scan", "--case", "CI", "--n", "5",
           "--window", "-40..20", "--step", "1/60"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env()) as proc:
        assert proc.stdout.readline() == b"case\tc\tz\tverdict\troute\tabc_screen\tclosed_form\tagree\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_main_rejects_unknown_format(capsys):
    assert main(["classify", "--case", "EIII", "--c", "-2", "--format", "yaml"]) == 1
    capsys.readouterr()


# --help before a negative token: the token is no value of --help, so the
# help is printed and the exit is 0.
HELP_BEFORE_A_NEGATIVE = [
    ["classify", "--help", "-3"],
    ["scan", "--case", "CI", "--n", "3", "--help", "-1..1"],
]
# Another command's flag before a negative value: both tokens are reported
# as unrecognized.
FOREIGN_FLAG_BEFORE_A_NEGATIVE = [
    (["scan", "--case", "CI", "--n", "3", "--window", "0..1", "--c", "-3"], "--c -3"),
    (["classify", "--case", "CI", "--n", "3", "--window", "-3", "--c", "0"], "--window -3"),
]
# Help texts and usage errors, one argv of each shape the reader turns down.
USAGE_ARGV = [
    # no args, and help at both levels
    [],
    ["-h"],
    ["--help"],
    ["classify", "-h"],
    ["classify", "--help"],
    ["scan", "--help"],
    ["table", "-h"],
    ["crosscheck", "--help"],
    ["datum-dump", "--help"],
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "-h", "extra"],
    # an unknown command, and an option before the command
    ["nonsense"],
    ["Classify", "--case", "CI", "--n", "3", "--c", "1"],
    ["--case", "CI", "classify", "--n", "3", "--c", "1"],
    ["--format", "json"],
    ["-x", "classify"],
    # a missing required flag
    ["classify", "--case", "CI", "--n", "3"],
    ["scan", "--case", "CI", "--n", "3"],
    ["table"],
    ["datum-dump"],
    # a flag with no value
    ["classify", "--case", "CI", "--n", "3", "--c"],
    ["classify", "--case", "AIII", "--p", "2", "--q", "--c", "1"],
    ["crosscheck", "--case", "EIII", "--window"],
    # an invalid choice or value
    ["classify", "--case", "BOGUS", "--c", "1"],
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "--format", "yaml"],
    ["table", "--table", "5"],
    ["table", "--table", "x"],
    # a stray positional after a command
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "extra"],
    ["datum-dump", "--case", "CI", "--n", "3", "extra", "more"],
    ["classify", "scan"],
    ["classify", "--case", "CI", "--c", "-3/4", "--n", "3", "stray"],
    # an unknown flag after a command
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "--bogus"],
    ["scan", "--case", "CI", "--n", "3", "--window", "0..1", "-x"],
    ["classify", "--case=CI", "--n=3", "--c=1", "--extra=1"],
    # an abbreviated flag
    ["scan", "--case", "CI", "--n", "3", "--window", "-2..2", "--st", "1/2"],
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "--form", "json"],
    ["scan", "--c", "CI", "--n", "3", "--window", "-2..2"],
    # "--" before and after the command
    ["--", "classify", "--case", "CI", "--n", "3", "--c", "1"],
    ["classify", "--", "--case", "CI", "--n", "3", "--c", "1"],
    ["classify", "--case", "CI", "--n", "3", "--c", "1", "--", "extra"],
    # a repeated flag
    ["classify", "--case", "CI", "--case", "BI", "--n", "3"],
    ["classify", "--format", "json", "--format", "yaml", "--case", "CI", "--n", "3", "--c", "1"],
    ["table", "--table", "1", "--table", "9"],
    *HELP_BEFORE_A_NEGATIVE,
    *(argv for argv, _ in FOREIGN_FLAG_BEFORE_A_NEGATIVE),
]


@pytest.mark.parametrize("argv", HELP_BEFORE_A_NEGATIVE, ids=" ".join)
def test_help_leaves_a_negative_neighbour_apart(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert run_cli(capsys, argv[0], "--help") == (0, out, "")


@pytest.mark.parametrize(
    "argv, tokens", FOREIGN_FLAG_BEFORE_A_NEGATIVE, ids=[" ".join(argv) for argv, _ in FOREIGN_FLAG_BEFORE_A_NEGATIVE]
)
def test_another_commands_flag_leaves_a_negative_neighbour_apart(capsys, argv, tokens):
    # Only a flag of the command being run takes a separate negative value,
    # so the error quotes the tokens as they were typed.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        "usage: scalarverma [-h] {classify,scan,table,crosscheck,datum-dump} ...\n"
        f"scalarverma: error: unrecognized arguments: {tokens}\n"
    )


@pytest.mark.parametrize(
    "argv", USAGE_ARGV + README_COMMANDS, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_each_argv_is_read_or_refused(capsys, argv):
    # The reader reads each README command line and turns down each help
    # and usage argv: a help on stdout, or a usage error in two lines on
    # stderr, a usage line and the reason under the same name, which is the
    # command's or the top level's.
    code, out, err = run_cli(capsys, *argv)
    refused = type(cli._read_argv(argv)) is tuple
    if argv in README_COMMANDS:
        assert code == 0 and not refused
    elif code == 0:
        assert refused and err == "" and out.startswith("usage: scalarverma ")
        assert "\noptions:\n  -h, --help            show this help message and exit\n" in out
    else:
        usage, reason = err.splitlines()
        prog = usage.removeprefix("usage: ").partition(" [-h]")[0]
        assert refused and code == 1 and out == "" and err.endswith("\n")
        assert prog == "scalarverma" or prog == f"scalarverma {argv[0]}"
        assert reason.startswith(f"{prog}: error: ")


def test_a_repeated_flag_keeps_its_last_value(capsys):
    assert run_cli(capsys, "table", "--table", "1", "--table", "2") == run_cli(capsys, "table", "--table", "2")
    request = ["classify", "--case", "CI", "--n", "3", "--format", "json"]
    assert run_cli(capsys, *request, "--c", "1", "--c", "2") == run_cli(capsys, *request, "--c", "2")
    # every value is checked, the ones it overrides too
    code, out, err = run_cli(capsys, "table", "--table", "1", "--table", "9")
    assert code == 1 and out == ""
    assert err.endswith("scalarverma table: error: argument --table: invalid choice: 9 (choose from 1, 2, 3, 4)\n")


# A well-formed request of each command.
WELL_FORMED = [
    ["classify", "--case", "CI", "--n", "3", "--c", "-1", "--format", "json"],
    ["scan", "--case", "CI", "--n", "2", "--window=-1..1", "--step", "1/2"],
    ["table", "--table", "4", "--a", "-7/2", "--format", "tsv"],
    ["crosscheck", "--case", "CI", "--n", "2..3", "--format", "json"],
    ["datum-dump", "--case", "EIII"],
]
# What a well-formed request is perturbed by: a token put in at any place,
# a bad value of any flag, and a separate value starting with a single "-"
# for each flag, which is that flag's value.  Some of these are valid, some
# fail their choices, and some fail later.
STRAY_TOKENS = ["--", "-h", "--help", "extra", "-x", "--bogus", "-3"]
BAD_VALUES = ["BOGUS", "9", "", "-", "-1..1", "--format"]
NEGATIVE_VALUES = {
    "--case": "-CI", "--p": "-1", "--q": "-2", "--n": "-2", "--c": "-1/2",
    "--window": "-1..1", "--step": "-1/2", "--table": "-1", "--a": "-7", "--format": "-json",
}


def _pairs(argv: list[str]) -> list[tuple[str, str]]:
    """The (flag, value) pairs of a well-formed argv, in order."""
    pairs, tokens = [], iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        pairs.append((flag, value if eq else next(tokens)))
    return pairs


def _spelled(pairs: list[tuple[str, str]], joined: bool) -> list[str]:
    """pairs as tokens: "--flag=value" each if joined, else "--flag", "value"."""
    return [token for flag, value in pairs for token in ([f"{flag}={value}"] if joined else [flag, value])]


def _argv_corpus() -> list[list[str]]:
    """The argvs above and the README's, then each well-formed request in both
    spellings with every single perturbation of it.

    A perturbation repeats one pair, drops one pair, puts a bad value or a
    separate negative value in one pair, cuts one flag short by a letter, or
    puts a stray token at one position.  Each argv is listed once.
    """
    argvs = USAGE_ARGV + USAGE_ERRORS + README_COMMANDS
    for command, *tokens in WELL_FORMED:
        pairs = _pairs([command, *tokens])
        for joined in (False, True):
            line = [command, *_spelled(pairs, joined)]
            argvs.append(line)
            for i, (flag, value) in enumerate(pairs):
                before, after = [command, *_spelled(pairs[:i], joined)], _spelled(pairs[i + 1:], joined)
                argvs.append(line + _spelled([(flag, value)], joined))
                argvs.append(before + after)
                argvs += [before + _spelled([(flag, bad)], joined) + after for bad in BAD_VALUES]
                argvs.append(before + [flag, NEGATIVE_VALUES[flag]] + after)
                argvs.append(before + _spelled([(flag[:-1], value)], joined) + after)
            argvs += [line[:k] + [token] + line[k:] for token in STRAY_TOKENS for k in range(len(line) + 1)]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


ARGV_CORPUS = _argv_corpus()
# The sha256 of each corpus argv with its exit code and stdout, a help
# text cut to its usage line.  They are the argparse parser's, at a width
# that wrapped no line, from before the reader was the only parser.
ARGV_CORPUS_SHA256 = "a7b6ab378995fc6064b6c25f955d93696f90479374ca6520322b0a0f1f8145a2"


def test_argv_corpus_keeps_its_decisions():
    # Each argv keeps its exit code and its stdout bytes, and each help its
    # usage line.
    digest = hashlib.sha256()
    for argv in ARGV_CORPUS:
        code, out, _ = _main_output(argv)
        if out.startswith("usage: "):
            out = out.partition("\n")[0]
        digest.update(repr((argv, code, out)).encode())
    assert (len(ARGV_CORPUS), digest.hexdigest()) == (836, ARGV_CORPUS_SHA256)


# Help at the top level and for each command, in both spellings.
HELP_ARGV = [
    [*command, flag]
    for command in ([], ["classify"], ["scan"], ["table"], ["crosscheck"], ["datum-dump"])
    for flag in ("-h", "--help")
]
# The sha256 of each argv below with its exit code, stdout and stderr.
HELP_AND_USAGE_SHA256 = "182ae0d023a71ee74692fd8714a0b7a003ab386ce033796fea1e799a8b9282a6"


def test_help_and_usage_bytes_pinned():
    digest = hashlib.sha256()
    for argv in HELP_ARGV + USAGE_ARGV + USAGE_ERRORS:
        digest.update(repr((argv, *_main_output(argv))).encode())
    assert digest.hexdigest() == HELP_AND_USAGE_SHA256


def test_help_and_usage_ignore_the_terminal_width():
    # Help and usage lines are never wrapped, so COLUMNS changes no byte.
    runs = [
        [
            subprocess.run(
                [sys.executable, "-m", "scalarverma.cli", *argv],
                capture_output=True, env=_module_env(COLUMNS=columns),
            )
            for argv in (["classify", "--help"], ["classify", "--case", "CI", "--n", "3"])
        ]
        for columns in ("40", "200")
    ]
    narrow, wide = [[(run.returncode, run.stdout, run.stderr) for run in each] for each in runs]
    assert narrow == wide
    (help_code, help_text, _), (usage_code, _, usage) = wide
    assert help_code == 0 and help_text.startswith(b"usage: scalarverma classify [-h] --case {")
    assert usage_code == 1 and usage.count(b"\n") == 2


def test_help_and_usage_need_no_docstrings():
    # -OO strips every docstring, the module's too
    for argv, code in ((["--help"], 0), (["classify", "--case", "CI"], 1)):
        run = subprocess.run(
            [sys.executable, "-OO", "-m", "scalarverma.cli", *argv], capture_output=True, env=_module_env()
        )
        assert run.returncode == code and b"Traceback" not in run.stderr, argv


def _outcome(convert, text, error):
    """convert(text), or the message of the error of that type it raises."""
    try:
        return convert(text)
    except error as exc:
        return str(exc)


def _reference_integer(text):
    """_integer as it ran on a regular expression: its int, or its ValueError's message."""
    import re

    if re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        try:
            return int(text)
        except ValueError:
            pass  # str.strip() drops the separators \x1c-\x1f, which int() refuses
    return f"invalid int value: {text!r}"


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789+-_ \t\n\x0b\x1c\u00a0x.\u0663\u00b3\uff13")) | st.text())
@example("\x1c7")
def test_integer_keeps_its_ascii_contract(text):
    assert _outcome(cli._integer, text, ValueError) == _reference_integer(text)


INTEGER_TEXTS = ["", " ", "+", "-", "+-3", "\u0663", "\u00b3", "1_0", "0x3", " 7 ", "\t+7\n", "-0", "007", "\x1c7"]


@pytest.mark.parametrize("text", INTEGER_TEXTS, ids=ascii)
def test_integer_texts_keep_their_decisions_and_messages(capsys, text):
    # Both error paths of an integer flag: the reader's type error for
    # --table, and _case's message for --n.  An accepted text gives the
    # bytes of its canonical form.
    table = run_cli(capsys, "table", "--table", text, "--format", "tsv")
    classify = run_cli(capsys, "classify", "--case", "CI", "--n", text, "--c", "0", "--format", "json")
    if isinstance(_reference_integer(text), int):
        canonical = str(int(text))
        assert table == run_cli(capsys, "table", "--table", canonical, "--format", "tsv")
        assert classify == run_cli(capsys, "classify", "--case", "CI", "--n", canonical, "--c", "0", "--format", "json")
    else:
        usage = run_cli(capsys, "table", "--table", "x")[2].rpartition("scalarverma table: error:")[0]
        assert table == (1, "", usage + f"scalarverma table: error: argument --table: invalid int value: {text!r}\n")
        assert classify == (1, "", f"error: --n must be an integer, got {text!r}\n")


def test_classify_terms_hold_the_datums_own_roots():
    # classify_scalar's terms, members and witness are the datum's own root
    # tuples, not copies
    for case, c in [(HermitianCase("EVII"), Q(9)), (HermitianCase("EIII"), Q(-2)),
                    (HermitianCase("DI", n=2), Q(0)), (HermitianCase("CI", n=20), Q(0))]:
        datum = build_datum(case)
        verdict = jantzen.classify_scalar(datum, c)
        betas = [t.beta for t in verdict.terms]
        betas += [m.beta for g in verdict.certificate for m in g.members] + [verdict.witness]
        assert verdict.witness is not None
        for beta in betas:
            assert any(beta is root for root in datum.nilradical_roots), (case.label, c, beta)


def test_classify_json_outlives_a_rebuilt_datum(capsys):
    argv = ["classify", "--case", "EIII", "--c", "-2", "--format", "json"]
    before = run_cli(capsys, *argv)
    build_datum.cache_clear()
    assert run_cli(capsys, *argv) == before
