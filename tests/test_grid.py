"""The root-major grid decision against the per-point oracle.

`jantzen.ScalarGrid` decides the grid c = m * step one nilradical root at a
time, by the arithmetic progression of m at which the root's level is a
positive integer.  `classify_scalar` tests every root at each point.  Both
hand their support terms to the same walk, so they differ only in the
terms they enumerate.  Each test here holds the grid to `classify_scalar`,
term for term or verdict for verdict, or holds `scan`'s block writer or
`crosscheck`'s output to a per-point writer kept below, which takes the
closed form and the screen from their `Fraction` definitions in
`reference.py`, not from `ehw`, or from stand-in rules that disagree with
the oracle, patched into `cli` as progressions in m.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache

import pytest

from conftest import ADMISSIBLE_CASES, assert_grid_decides, case_flags, replaced
from reference import abc_verdict_reference, closed_form_reference
from scalarverma import HermitianCase, abc_constants, build_datum, classify_scalar, line_offset
from scalarverma import cli, jantzen
from scalarverma.jantzen import REDUCIBLE, ScalarGrid


def per_point(datum, step, ms):
    return [
        (v.verdict, v.route) for v in (classify_scalar(datum, m * Fraction(step)) for m in ms)
    ]


def assert_grid_matches_oracle(cases, step, ms):
    for case in cases:
        datum = build_datum(case)
        assert_grid_decides(ScalarGrid(datum, step), ms, per_point(datum, step, ms), case.label)


def test_grid_matches_the_oracle_on_every_admissible_case():
    # c = -24 .. 4 by halves: every reducible start c = A - B lies inside.
    assert min(abc_constants(case).a - abc_constants(case).b for case in ADMISSIBLE_CASES) > -24
    assert_grid_matches_oracle(ADMISSIBLE_CASES, Fraction(1, 2), range(-48, 9))


@pytest.mark.slow
@pytest.mark.parametrize("step, ms", [("1/6", range(-240, 121)), ("3/7", range(-100, 60))])
def test_grid_matches_the_oracle_on_a_finer_grid(step, ms):
    assert_grid_matches_oracle(ADMISSIBLE_CASES, Fraction(step), ms)


CASES = [
    HermitianCase("AIII", p=2, q=3),
    HermitianCase("CI", n=4),
    HermitianCase("BI", n=3),
    HermitianCase("DI", n=4),
    HermitianCase("DIII", n=5),
    HermitianCase("EIII"),
    HermitianCase("EVII"),
]


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_term_count_is_the_terms_decided(case, monkeypatch):
    # The grid's walk decides the (point, j, k) triples that classify_scalar
    # holds as its terms, point by point.  The walk decides each triple by
    # the entry it holds for root j when the entry's lo..hi holds k, and
    # otherwise by the entry `weyl` gives it for (j, k), which it holds from
    # then on; a wall level leaves it holding none.
    datum = build_datum(case)
    index = {beta: j for j, beta in enumerate(datum.nilradical_roots)}
    triples, calls = [], []

    def walk(view, walks, size, packs):
        walks = list(walks)
        for j, start, period, k, rise in walks:
            triples.extend((i, j, k + n * rise) for n, i in enumerate(range(start, size, period)))
        return whole_walk(view, walks, size, packs)

    def line_chamber(view, j, k):
        entry = fetch(view, j, k)
        calls.append((j, k, entry))
        return entry

    def assert_each_triple_is_decided():
        # replays the walk: each triple is served by the held entry, or
        # is the next call to `weyl`, and no call is left over
        held, fetched = {}, iter(calls)
        for i, j, k in triples:
            entry = held.get(j)
            if entry is None or not entry[0] <= k <= entry[1]:
                call_j, call_k, held[j] = next(fetched)
                assert (call_j, call_k) == (j, k), (i, j, k)
        assert next(fetched, None) is None

    whole_walk, fetch = jantzen._walk, jantzen._line_chamber
    monkeypatch.setattr(jantzen, "_walk", walk)
    monkeypatch.setattr(jantzen, "_line_chamber", line_chamber)
    served = 0
    for step, ms in [("1/2", range(-20, 9)), ("3/7", range(-30, 12)), ("1", range(5, 6))]:
        step = Fraction(step)
        grid = ScalarGrid(datum, step)
        per_root_test = []
        for m in ms:
            per_root_test += [(m, index[t.beta], t.level) for t in classify_scalar(datum, m * step).terms]
        triples.clear()
        calls.clear()
        grid.decide(ms)
        assert_each_triple_is_decided()
        served += len(triples) - len(calls)
        assert sorted((ms[i], j, k) for i, j, k in triples) == sorted(per_root_test), (step, ms)
        assert grid.terms(ms) == len(triples), (step, ms)
    # a block split anywhere counts the same terms
    assert grid.terms(range(-9, 2)) + grid.terms(range(2, 7)) == grid.terms(range(-9, 7))
    # some levels are served by a held entry, with no call to `weyl`
    assert served > 0


def test_a_grid_packs_each_entry_once_per_width(capsys, monkeypatch):
    # The dense CI(20) scan's blocks cross steps of the packing width.  The
    # request's grid keeps one table of packed pairs for all its blocks, so
    # a warm scan packs each pair it holds once, and at most twice per memo
    # entry and width, however many blocks fetch the entry.
    argv = ["scan", "--case", "CI", "--n", "20", "--window", "0..499/2", "--step", "1/2", "--format", "json"]
    assert cli.main(argv) == 0
    widths, tables = [], []

    def pack(u, width):
        widths.append(width)
        return whole_pack(u, width)

    def walk(view, walks, size, packs):
        tables.append(packs)
        return whole_walk(view, walks, size, packs)

    whole_pack, whole_walk = jantzen._pack, jantzen._walk
    monkeypatch.setattr(jantzen, "_pack", pack)
    monkeypatch.setattr(jantzen, "_walk", walk)
    assert cli.main(argv) == 0
    capsys.readouterr()
    [packs] = {id(t): t for t in tables}.values()
    assert len(tables) > 1 and len(set(widths)) > 1
    assert len(widths) == 2 * sum(map(len, packs.values()))
    entries = sum(len(e) for _, e in build_datum(HermitianCase("CI", n=20)).integer_view.words.values())
    assert len(widths) <= 2 * entries * len(packs)


def test_a_wide_request_leaves_a_later_grid_at_its_own_width(monkeypatch):
    # The memo holds no width: after a request at c = 10**40, a warm grid
    # over a small window packs only at the widths its own walk takes.
    datum = replaced(build_datum(HermitianCase("CI", n=4)))
    ms, step = range(-20, 9), Fraction(1, 2)
    first = ScalarGrid(datum, step)
    decided = first.decide(ms)
    wide = classify_scalar(datum, 10**40).terms
    widths = []

    def pack(u, width):
        widths.append(width)
        return whole_pack(u, width)

    whole_pack = jantzen._pack
    monkeypatch.setattr(jantzen, "_pack", pack)
    later = ScalarGrid(datum, step)
    assert later.decide(ms) == decided
    assert widths and set(widths) == set(later._packs) == set(first._packs)
    view = datum.integer_view
    assert max(widths) < max(jantzen._line_width(view, int(t.level)) for t in wide)


def test_grid_rejects_a_step_that_is_not_positive():
    datum = build_datum(HermitianCase("CI", n=2))
    for step in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="step must be positive"):
            ScalarGrid(datum, step)


# ---------------------------------------------------------------------------
# scan bytes against a per-point writer


def per_point_rows(case, lo, hi, step, closed_form=closed_form_reference, screen=abc_verdict_reference):
    """`scan`'s rows as dicts, from one `classify_scalar` call per point and the
    closed form and the screen by per-point rules, by default their
    `Fraction` definitions."""
    datum = build_datum(case)
    constants = abc_constants(case)
    rows = []
    for m in range(math.ceil(lo / step), math.floor(hi / step) + 1):
        c = m * step
        verdict = classify_scalar(datum, c)
        z = c + line_offset(case)
        closed = closed_form(constants, c)
        rows.append({
            "case": case.label,
            "c": str(c),
            "z": str(z),
            "verdict": verdict.verdict,
            "route": verdict.route,
            "abc_screen": screen(constants, z),
            "closed_form": closed,
            "agree": (verdict.verdict == REDUCIBLE) == closed,
        })
    return rows


def case_json(case):
    fields = {"tag": case.tag, "p": case.p, "q": case.q, "n": case.n}
    return {k: v for k, v in fields.items() if v is not None}


@cache
def per_point_scan(case, window, step, fmt, *rules):
    """`scan`'s output, from `per_point_rows` and one json.dumps per payload."""
    lo, hi = (Fraction(x) for x in window.split(".."))
    step = Fraction(step)
    rows = per_point_rows(case, lo, hi, step, *rules)
    if fmt == "json":
        payload = {
            "case": case_json(case),
            "label": case.label,
            "window": [str(lo), str(hi)],
            "step": str(step),
            "rows": rows,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["case\tc\tz\tverdict\troute\tabc_screen\tclosed_form\tagree"]
    for r in rows:
        lines.append("\t".join(str(v).lower() if isinstance(v, bool) else v for v in r.values()))
    return "\n".join(lines) + "\n"


SCANS = [
    (HermitianCase("CI", n=3), "-7/3..5/2", "3/7"),  # odd step, fractional ends
    (HermitianCase("AIII", p=2, q=3), "-9/4..13/4", "1/4"),
    (HermitianCase("EVII"), "-12..2", "3/7"),
    (HermitianCase("BI", n=4), "-20/3..-1/5", "1/6"),  # every m negative
    (HermitianCase("DIII", n=5), "1/2..1/2", "1/4"),  # a single point
    (HermitianCase("DI", n=4), "-1/3..1/5", "1/2"),  # the single point c = 0
    (HermitianCase("EIII"), "1/3..1/2", "1"),  # no point
    # many points per residue class of m mod 3, in blocks that 3 does not divide
    (HermitianCase("CI", n=2), "-700..700", "1/3"),
    # one point per residue class of m mod 5000 in each block
    (HermitianCase("DI", n=3), "-1..1", "1/5000"),
    (HermitianCase("DIII", n=6), "-12..9", "1"),  # an integer step
    (HermitianCase("AIII", p=3, q=4), "-13..9", "2"),  # an integer step with s > 1
    (HermitianCase("BI", n=5), "-21/2..7", "5/2"),  # a step s/t with s > 1
]


SCAN_IDS = [f"{c.label} {w} {s}" for c, w, s in SCANS]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("case, window, step", SCANS, ids=SCAN_IDS)
def test_scan_bytes_match_a_per_point_writer(capsys, fmt, case, window, step):
    argv = ["scan", *case_flags(case), "--window", window, "--step", step, "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == per_point_scan(case, window, step, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("case, window, step", SCANS, ids=SCAN_IDS)
def test_scan_bytes_hold_in_blocks_of_five(capsys, monkeypatch, fmt, case, window, step):
    # Blocks of 5 points cut the residue classes of every step but 1/5
    # across blocks, and a class has at most one point in a block when t >= 5.
    monkeypatch.setattr(cli, "GRID_BLOCK", 5)
    argv = ["scan", *case_flags(case), "--window", window, "--step", step, "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == per_point_scan(case, window, step, fmt)


def per_point_crosscheck(cases, step, fmt, *rules):
    """`crosscheck`'s output on default windows, from `per_point_rows`."""
    instances = []
    for case in cases:
        constants = abc_constants(case)
        window = (constants.a - constants.b - 5, Fraction(10))
        rows = per_point_rows(case, *window, step, *rules)
        mismatches = [r for r in rows if not r["agree"]]
        contradictions = [
            r for r in rows
            if (r["abc_screen"] == "known_simple" and r["verdict"] == REDUCIBLE)
            or (r["abc_screen"] == "known_reducible" and r["verdict"] != REDUCIBLE)
        ]
        instances.append((case, window, rows, mismatches, contradictions))
    ok = all(not bad and not wrong for *_, bad, wrong in instances)
    if fmt == "json":
        payload = {"pass": ok, "instances": [
            {
                "case": case_json(case),
                "label": case.label,
                "window": [str(x) for x in window],
                "step": str(step),
                "points": len(rows),
                "reducible": sum(r["verdict"] == REDUCIBLE for r in rows),
                "mismatches": [r["c"] for r in bad],
                "contradictions": [r["c"] for r in wrong],
            }
            for case, window, rows, bad, wrong in instances
        ]}
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for case, (lo, hi), rows, bad, wrong in instances:
        lines.append(
            f"{case.label}: window {lo}..{hi}"
            f" points={len(rows)} reducible={sum(r['verdict'] == REDUCIBLE for r in rows)}"
            f" mismatches={len(bad)} contradictions={len(wrong)}"
        )
        lines += [
            f"  MISMATCH c={r['c']}: oracle {r['verdict']} vs closed form "
            f"{str(r['closed_form']).lower()}"
            for r in bad
        ]
        lines += [
            f"  CONTRADICTION c={r['c']}: oracle {r['verdict']} vs screen {r['abc_screen']}"
            for r in wrong
        ]
    total = sum(len(rows) for _, _, rows, _, _ in instances)
    lines.append(f"crosscheck: {'PASS' if ok else 'FAIL'} ({len(instances)} instances, {total} points)")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_crosscheck_bytes_match_a_per_point_checker(capsys, fmt):
    cases = [HermitianCase("DIII", n=n) for n in range(2, 7)]
    argv = ["crosscheck", "--case", "DIII", "--n", "2..6", "--step", "1/7", "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == per_point_crosscheck(cases, Fraction(1, 7), fmt)


# Stand-in rules on the grid c = m / 7 that disagree with the oracle both
# ways: the closed form holds m = 0 mod 3 and m = 1 mod 4, two overlapping
# progressions, and the screen calls m = 1 mod 5 known simple and m = 2 mod 5
# known reducible.  In `cli` each is a progression inside its block, and the
# screen's two are disjoint, as on real data.
STAND_IN_STEP = Fraction(1, 7)


def stand_in_closed_form(constants, c):
    m = c / STAND_IN_STEP
    return m % 3 == 0 or m % 4 == 1


def stand_in_screen(constants, z):
    m = (z - constants.b) / STAND_IN_STEP
    return {1: "known_simple", 2: "known_reducible"}.get(m % 5, "indeterminate")


def within(ms, residue, period):
    """The m in ms with m = residue modulo period, one progression inside ms."""
    return range(ms.start + (residue - ms.start) % period, ms.stop, period)


def patch_stand_ins(monkeypatch, block):
    monkeypatch.setattr(cli, "closed_form_grid", lambda case, step, ms: [within(ms, 0, 3), within(ms, 1, 4)])
    monkeypatch.setattr(cli, "screen_grid", lambda constants, step, ms: (within(ms, 1, 5), within(ms, 2, 5)))
    monkeypatch.setattr(cli, "GRID_BLOCK", block)


@pytest.mark.parametrize("block", [cli.GRID_BLOCK, 5])
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_crosscheck_disagreements_match_a_per_point_checker(capsys, monkeypatch, fmt, block):
    cases = [HermitianCase("DIII", n=n) for n in range(2, 7)]
    rules = stand_in_closed_form, stand_in_screen
    pretty = per_point_crosscheck(cases, STAND_IN_STEP, "pretty", *rules)
    # every kind of disagreement is reported
    for kind in (
        "oracle Reducible vs closed form false",
        "oracle Simple vs closed form true",
        "oracle Reducible vs screen known_simple",
        "oracle Simple vs screen known_reducible",
    ):
        assert kind in pretty
    patch_stand_ins(monkeypatch, block)
    argv = ["crosscheck", "--case", "DIII", "--n", "2..6", "--step", "1/7", "--format", fmt]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == per_point_crosscheck(cases, STAND_IN_STEP, fmt, *rules)


@pytest.mark.parametrize("block", [cli.GRID_BLOCK, 5])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize(
    "case, window", [(HermitianCase("CI", n=3), "-7/3..5/2"), (HermitianCase("EVII"), "-12..2")]
)
def test_scan_disagreements_match_a_per_point_writer(capsys, monkeypatch, fmt, block, case, window):
    patch_stand_ins(monkeypatch, block)
    argv = ["scan", *case_flags(case), "--window", window, "--step", "1/7", "--format", fmt]
    assert cli.main(argv) == 0
    rules = stand_in_closed_form, stand_in_screen
    assert capsys.readouterr().out == per_point_scan(case, window, "1/7", fmt, *rules)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_blocks_hold_their_bounds_and_leave_no_mark(capsys, monkeypatch, fmt):
    # Blocks of at most 5 points and, past a single point, 9 terms: EVII's
    # full supports make many one-point blocks.
    case, window, step = HermitianCase("EVII"), "-14..3", "3/7"
    blocks = []
    decide = ScalarGrid.decide

    def recording_decide(self, ms):
        blocks.append((ms, self.terms(ms)))
        return decide(self, ms)

    monkeypatch.setattr(cli, "GRID_BLOCK", 5)
    monkeypatch.setattr(cli, "BLOCK_TERMS", 9)
    monkeypatch.setattr(ScalarGrid, "decide", recording_decide)
    argv = ["scan", *case_flags(case), "--window", window, "--step", step, "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == per_point_scan(case, window, step, fmt)
    assert all(len(ms) <= 5 and (len(ms) == 1 or terms <= 9) for ms, terms in blocks)
    assert [m for ms, _ in blocks for m in ms] == list(range(-32, 8))
    assert any(len(ms) == 1 and terms > 9 for ms, terms in blocks)
    assert any(len(ms) > 1 and terms for ms, terms in blocks)
