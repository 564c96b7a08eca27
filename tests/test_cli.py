"""Command-line surface: parsing, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scalarverma
from scalarverma import InvariantError
from scalarverma.cli import main

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


def test_classify_negative_value_without_equals(capsys):
    # the glue pass joins "--c -3" into one token before argparse runs
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


@pytest.mark.parametrize("argv", [
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
])
def test_usage_errors_exit_1(capsys, argv):
    assert main(list(argv)) == 1
    capsys.readouterr()


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


def test_crosscheck_json(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--case", "DIII", "--n", "3",
                           "--window", "-2..2", "--step", "1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    inst = payload["instances"][0]
    assert inst["label"] == "DIII(3)" and inst["points"] == 9
    assert inst["mismatches"] == [] and inst["contradictions"] == []


def test_crosscheck_disagreement_exits_2(capsys, monkeypatch):
    import scalarverma.cli as cli_mod

    # a constant-False stand-in disagrees on every reducible point
    monkeypatch.setattr(cli_mod, "closed_form_reducible", lambda case, c: False)
    code, out, _ = run_cli(capsys, "crosscheck", "--case", "CI", "--n", "2",
                           "--window", "-1..1", "--step", "1/2")
    assert code == 2
    assert "crosscheck: FAIL" in out


def test_invariant_violation_exits_3(capsys, monkeypatch):
    import scalarverma.cli as cli_mod

    def boom(case_or_datum, c):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "classify_scalar", boom)
    code, out, err = run_cli(capsys, "classify", "--case", "EIII", "--c", "-2")
    assert code == 3
    assert "invariant" in err.lower()


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


def test_datum_dump_notes_on_degenerate_case(capsys):
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "DI", "--n", "2")
    assert code == 0
    assert json.loads(out).get("notes")
    code, out, _ = run_cli(capsys, "datum-dump", "--case", "DI", "--n", "3")
    assert code == 0
    assert "notes" not in json.loads(out)


def test_output_is_deterministic(capsys):
    args = ["scan", "--case", "EVII", "--window", "-9..-5", "--step", "1/2",
            "--format", "tsv"]
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_entry_point_subprocess():
    # byte-for-byte stability across processes, through the console script
    cmd = [sys.executable, "-m", "scalarverma.cli", "table", "--table", "2",
           "--format", "tsv"]
    # the child imports the same package as this process, installed or not
    src = str(Path(scalarverma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {
        subprocess.run(cmd, capture_output=True, check=True, env=env).stdout for _ in range(2)
    }
    assert len(runs) == 1
    assert next(iter(runs)).startswith(b"pattern\te1")


def test_main_rejects_unknown_format(capsys):
    assert main(["classify", "--case", "EIII", "--c", "-2", "--format", "yaml"]) == 1
    capsys.readouterr()
