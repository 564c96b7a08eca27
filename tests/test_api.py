"""The package's public names are the ones the README documents."""

from __future__ import annotations

from pathlib import Path

import scalarverma

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_are_documented():
    text = README.read_text(encoding="utf-8")
    for name in scalarverma.__all__:
        assert hasattr(scalarverma, name), name
        assert f"`{name}`" in text, f"{name} is exported but not documented"
