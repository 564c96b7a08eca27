"""The README's examples run as written: each command-line example exits 0,
and the library quick start gives the values its comments state."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from scalarverma.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The body of the first fenced block under a README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    fenced = section.split("```", 2)[1]
    return fenced.split("\n", 1)[1]  # past the info string


def _commands() -> list[list[str]]:
    """Each `scalarverma ...` line, without its optional [...] groups and
    taking the first of each a|b choice."""
    commands = []
    for line in _block("Command line").splitlines():
        if line.startswith("scalarverma "):
            words = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
            commands.append([word.split("|")[0] for word in words])
    return commands


COMMANDS = _commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "classify", "scan", "table", "crosscheck", "datum-dump"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_exits_zero(argv, capsys):
    code = main(argv)
    assert code == 0, capsys.readouterr().err


def test_readme_quick_start_gives_the_values_it_states():
    code = _block("Library quick start")
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    stated = {}
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        try:
            stated[expr.strip()] = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, not a stated value
    assert set(stated) == {"verdict.verdict", "verdict.route"}
    for expr, value in stated.items():
        assert eval(expr, namespace) == value, expr
