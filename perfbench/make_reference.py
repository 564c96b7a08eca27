"""Regenerate perfbench/reference.json from the package's Fraction oracle.

Run from the repository root:

    python3 perfbench/make_reference.py

The table records, for every lattice point the workloads decide, the
verdict, the route, the witness, the number of surviving classes and the
support size.  Points with empty support (Simple, no witness, no classes)
are left out and implied by the lattice bounds.  It also records the
fields of each `datum-dump` the `highrank` workload requests.  The
benchmark checks the program's output against this table, so regenerate
it only from a commit whose verdicts are trusted.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import workloads as W

sys.path.insert(0, str(W.HERE.parent / "src"))

from scalarverma.ehw import abc_constants, line_offset  # noqa: E402
from scalarverma.jantzen import ROUTE_EMPTY_SUPPORT, classify_scalar  # noqa: E402
from scalarverma.rootdata import HermitianCase, build_datum  # noqa: E402


def _w(v) -> list[str]:
    return [str(x) for x in v]


def lattice_entry(case: W.Case, window, step: str) -> dict:
    hc = HermitianCase(case.tag, **case.kwargs)
    datum = build_datum(hc)
    if window is None:
        constants = abc_constants(hc)
        offset = line_offset(hc)
        lo, hi = constants.a - 5 - offset, constants.b + 10 - offset
    else:
        lo, hi = (Fraction(x) for x in window)
    points = W.grid(lo, hi, Fraction(step))
    nonempty = {}
    for c in points:
        v = classify_scalar(datum, c)
        if v.route != ROUTE_EMPTY_SUPPORT:
            witness = _w(v.witness) if v.witness is not None else None
            nonempty[str(c)] = [v.verdict, v.route, witness, len(v.surviving), len(v.terms)]
    return {
        "lo": str(lo),
        "hi": str(hi),
        "step": step,
        "points": len(points),
        "reducible": sum(e[0] == "Reducible" for e in nonempty.values()),
        "nonempty": nonempty,
    }


def datum_entry(case: W.Case) -> dict:
    d = build_datum(HermitianCase(case.tag, **case.kwargs))
    return {
        "ambient_dim": d.ambient_dim,
        "simple_roots": [_w(a) for a in d.simple_roots],
        "noncompact_simple": _w(d.noncompact_simple),
        "nilradical_size": len(d.nilradical_roots),
        "rho": _w(d.rho),
        "gamma": _w(d.gamma),
        "zeta": _w(d.zeta),
        "theta_u": _w(d.theta_u),
    }


def _dump(obj, depth: int = 0) -> str:
    """JSON with one object member per line and each list on one line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    pad = " " * (depth + 1)
    members = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(members) + "\n" + " " * depth + "}"


def main() -> None:
    reference = {
        "lattices": {
            name: {case.label: lattice_entry(case, window, step) for case in cases}
            for name, (cases, window, step) in W.LATTICES.items()
        },
        "datums": {case.label: datum_entry(case) for case in W.HIGHRANK_DUMP},
    }
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(_dump(reference) + "\n")


if __name__ == "__main__":
    main()
