"""Checks one request's output against the reference table.

The checks compare meaning, not bytes: they parse the JSON the command
printed and compare the fields that carry the decision.  Fields the
table does not know are ignored, so output that gains a field still
passes.  Each check returns None when the output is right, or a short
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import Request, grid

EMPTY = ["Simple", "empty_support", None, 0, 0]


def check(req: Request, rc, out: str, reference: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        return _CHECKS[req.kind](req, payload, reference)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _lattice(req: Request, reference: dict) -> dict:
    return reference["lattices"][req.lattice][req.case.label]


def _crosscheck(req, payload, reference):
    ref = _lattice(req, reference)
    if payload.get("pass") is not True:
        return "crosscheck did not pass"
    (inst,) = payload["instances"]
    got = (inst["label"], inst["window"], inst["step"], inst["points"], inst["reducible"])
    want = (req.case.label, [ref["lo"], ref["hi"]], ref["step"], ref["points"], ref["reducible"])
    if got != want:
        return f"crosscheck summary {got} != {want}"
    if inst["mismatches"] or inst["contradictions"]:
        return "crosscheck reported disagreements"
    return None


def _scan(req, payload, reference):
    ref = _lattice(req, reference)
    want = [str(c) for c in grid(Fraction(ref["lo"]), Fraction(ref["hi"]), Fraction(ref["step"]))]
    rows = payload["rows"]
    if [r["c"] for r in rows] != want:
        return "scan rows are not the reference lattice"
    for r in rows:
        exp = ref["nonempty"].get(r["c"], EMPTY)
        if [r["verdict"], r["route"]] != exp[:2]:
            return f"c={r['c']}: {r['verdict']}/{r['route']} != {exp[0]}/{exp[1]}"
        if r["agree"] is not True:
            return f"c={r['c']}: oracle and closed form disagree"
    return None


def _classify(req, payload, reference):
    if payload["c"] != req.c or payload["label"] != req.case.label:
        return f"classify echoed {payload['label']} c={payload['c']}"
    exp = _lattice(req, reference)["nonempty"].get(req.c, EMPTY)
    got = [payload["verdict"], payload["route"], payload["witness"],
           len(payload["surviving_classes"]), payload["s_lambda_size"]]
    if got != exp:
        return f"classify {req.case.label} c={req.c}: {got} != {exp}"
    return None


def _datum_dump(req, payload, reference):
    ref = reference["datums"][req.case.label]
    got = {k: payload[k] for k in ref if k != "nilradical_size"}
    got["nilradical_size"] = len(payload["nilradical_roots"])
    if payload["label"] != req.case.label or got != ref:
        return f"datum-dump {req.case.label} differs from the reference"
    return None


_CHECKS = {
    "crosscheck": _crosscheck,
    "scan": _scan,
    "classify": _classify,
    "datum-dump": _datum_dump,
}
