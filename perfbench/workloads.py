"""The four benchmark workloads, as lists of command-line requests.

This module does not import the package: run.py uses it to name the
workloads, the worker to build its requests, and the reference generator
to know which lattices to decide.  Only `classify_json` depends on the
seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("sweep19", "highrank", "finegrid", "classify_json")

CLASSIFY_REQUESTS = 1500
FINEGRID_WINDOW = ("-40", "20")
FINEGRID_STEP = "1/60"
DEFAULT_STEP = "1/6"


@dataclass(frozen=True)
class Case:
    """A case as the command line names it; mirrors HermitianCase.label."""

    tag: str
    p: int | None = None
    q: int | None = None
    n: int | None = None

    @property
    def label(self) -> str:
        if self.tag == "AIII":
            return f"AIII({self.p},{self.q})"
        if self.n is not None:
            return f"{self.tag}({self.n})"
        return self.tag

    @property
    def flags(self) -> list[str]:
        if self.tag == "AIII":
            return ["--case", "AIII", "--p", str(self.p), "--q", str(self.q)]
        if self.n is not None:
            return ["--case", self.tag, "--n", str(self.n)]
        return ["--case", self.tag]

    @property
    def kwargs(self) -> dict:
        return {k: v for k, v in (("p", self.p), ("q", self.q), ("n", self.n)) if v is not None}


# The 19 cases of the acceptance sweep, in the test suite's order.
SWEEP_CASES = (
    [Case("AIII", p=p, q=q) for p, q in [(1, 1), (2, 2), (2, 3), (3, 3)]]
    + [Case("CI", n=n) for n in (2, 3, 4)]
    + [Case("BI", n=n) for n in (2, 3, 4)]
    + [Case("DI", n=n) for n in (2, 3, 4)]
    + [Case("DIII", n=n) for n in (2, 3, 4, 5)]
    + [Case("EIII"), Case("EVII")]
)
HIGHRANK_CROSSCHECK = [Case("CI", n=8), Case("DIII", n=10), Case("AIII", p=5, q=5)]
HIGHRANK_DUMP = [
    Case("CI", n=16),
    Case("CI", n=20),
    Case("DIII", n=16),
    Case("DIII", n=20),
    Case("AIII", p=8, q=8),
    Case("AIII", p=10, q=10),
]
FINEGRID_CASES = [Case("AIII", p=3, q=4), Case("CI", n=5), Case("DIII", n=6)]

# Lattice name -> (cases, explicit window or None for the default, step).
LATTICES = {
    "sweep19": (SWEEP_CASES, None, DEFAULT_STEP),
    "highrank": (HIGHRANK_CROSSCHECK, None, DEFAULT_STEP),
    "finegrid": (FINEGRID_CASES, FINEGRID_WINDOW, FINEGRID_STEP),
}


@dataclass(frozen=True)
class Request:
    """One `scalarverma.cli.main(argv)` call and what its output must show."""

    kind: str  # crosscheck | scan | classify | datum-dump
    case: Case
    argv: tuple[str, ...]
    lattice: str | None = None  # reference lattice holding the expected verdicts
    c: str | None = None  # classify only


def grid(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    """The lattice points k * step inside [lo, hi], as the CLI enumerates them."""
    k = math.ceil(lo / step)
    out = []
    while k * step <= hi:
        out.append(k * step)
        k += 1
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def lattice_points(reference: dict, lattice: str, label: str) -> list[str]:
    entry = reference["lattices"][lattice][label]
    pts = grid(Fraction(entry["lo"]), Fraction(entry["hi"]), Fraction(entry["step"]))
    return [str(c) for c in pts]


def classify_stream(reference: dict, seed: int) -> list[tuple[Case, str]]:
    """Seeded (case, c) draws for `classify_json`.

    Each request's case is uniform over the 19 sweep cases, and its c is
    uniform over that case's default crosscheck lattice.  A request's cost
    grows with the support size of its point, and the slowest 1% of
    requests sit in two tiers (EVII and EIII points with full support).
    Independent draws moved p99 between tiers from seed to seed, so the
    draws are stratified: every case gets 78 or 79 requests, and within a
    case the points of each support size get their proportional share of
    the requests, by systematic rounding.  Within one support size, c is
    drawn uniformly with replacement, so about 30% of requests repeat an
    earlier pair.  The order is shuffled.
    """
    rng = random.Random(seed)
    counts = [CLASSIFY_REQUESTS // len(SWEEP_CASES)] * len(SWEEP_CASES)
    for i in rng.sample(range(len(SWEEP_CASES)), CLASSIFY_REQUESTS % len(SWEEP_CASES)):
        counts[i] += 1
    out = []
    for case, k in zip(SWEEP_CASES, counts):
        nonempty = reference["lattices"]["sweep19"][case.label]["nonempty"]
        points = lattice_points(reference, "sweep19", case.label)
        strata: dict[int, list[str]] = {}
        for c in points:
            strata.setdefault(nonempty[c][4] if c in nonempty else 0, []).append(c)
        u = rng.random()
        quota = 0.0
        for size in sorted(strata):
            share = k * len(strata[size]) / len(points)
            m = math.floor(quota + share + u) - math.floor(quota + u)
            quota += share
            out.extend((case, rng.choice(strata[size])) for _ in range(m))
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int, reference: dict) -> list[Request]:
    if workload == "sweep19":
        return [_crosscheck(case, "sweep19") for case in SWEEP_CASES]
    if workload == "highrank":
        return [_crosscheck(case, "highrank") for case in HIGHRANK_CROSSCHECK] + [
            Request("datum-dump", case, ("datum-dump", *case.flags)) for case in HIGHRANK_DUMP
        ]
    if workload == "finegrid":
        lo, hi = FINEGRID_WINDOW
        return [
            Request(
                "scan",
                case,
                ("scan", *case.flags, "--window", f"{lo}..{hi}", "--step", FINEGRID_STEP,
                 "--format", "json"),
                "finegrid",
            )
            for case in FINEGRID_CASES
        ]
    if workload == "classify_json":
        return [
            Request("classify", case, ("classify", *case.flags, "--c", c, "--format", "json"),
                    "sweep19", c)
            for case, c in classify_stream(reference, seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _crosscheck(case: Case, lattice: str) -> Request:
    return Request(
        "crosscheck",
        case,
        ("crosscheck", *case.flags, "--step", DEFAULT_STEP, "--format", "json"),
        lattice,
    )


def points(req: Request, reference: dict) -> tuple[int, int]:
    """(points the request decides, how many of them have nonempty support)."""
    if req.kind == "datum-dump":
        return 0, 0
    entry = reference["lattices"][req.lattice][req.case.label]
    if req.kind == "classify":
        return 1, int(req.c in entry["nonempty"])
    return entry["points"], len(entry["nonempty"])


def setup_cases(reqs: list[Request]) -> list[Case]:
    """Every case the requests touch, in first-use order."""
    return list(dict.fromkeys(r.case for r in reqs))


def repeat_frac(reqs: list[Request]) -> float:
    """Share of requests whose (case, c) pair appeared earlier in the list."""
    seen = set()
    repeats = 0
    for r in reqs:
        key = (r.case, r.c)
        repeats += key in seen
        seen.add(key)
    return repeats / len(reqs)
