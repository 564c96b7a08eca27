"""The integer scalar-line path against the Fraction reference.

`classify_scalar` decides c * zeta in integers through the datum's
`IntegerView`: `weyl` keeps one record per root, built on its first support
term, and decides each term by the root's singular levels, by the
memoized word whose certified interval of levels holds it, or by a fresh
descent inside `_line_chamber`, which runs no wall scan of its own.  The
tests below scan the walls themselves, compare each served word with a
fresh descent from a record that holds no entries, and compare each fresh
descent, which updates tracked pairings, with `reference.scaled_descent`,
which recomputes every dot on the datum's own Levi roots.  Each root's record, whose dots come from the
view's coordinate columns, is compared with `reference.line_record_reference`,
which takes one full dot per Levi positive root.
The memo holds vectors under integer keys only; each packed pair a
walk's table holds is held to the packing's definition at its width, and
the packing to injectivity and tuple order at the width a walk derives;
windows at levels near 10**12 and 10**40 cross a step of that width, and
a request at such a level between a walk's fetches changes no verdict.
`reference.simplicity_oracle`, built on `normalize`, is the rational
reference.  Every comparison here is whole-verdict equality, certificates
included, and every InvariantError the reference can raise is triggered
on both paths.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ADMISSIBLE_CASES, SWEEP_CASES, assert_grid_decides, replaced
from reference import line_record_reference, scaled_datum, scaled_descent, simplicity_oracle
from scalarverma import (
    HermitianCase,
    InvariantError,
    abc_constants,
    build_datum,
    classify_scalar,
    line_offset,
)
from scalarverma import jantzen, weyl
from scalarverma.jantzen import ROUTE_EMPTY_SUPPORT, SIMPLE, jantzen_support
from scalarverma.ratvec import add, dot, inner, sub, weight
from scalarverma.rootdata import scalar_parameter_weight
from scalarverma.weyl import _line_chamber, normalize

CASE_IDS = [c.label for c in SWEEP_CASES]
HIGH_RANK = [HermitianCase("CI", n=8), HermitianCase("DIII", n=10), HermitianCase("AIII", p=5, q=5)]


def reference(datum, c):
    return simplicity_oracle(datum, scalar_parameter_weight(datum, c))


def default_window(case, step):
    con = abc_constants(case)
    offset = line_offset(case)
    first = con.a - 5 - offset
    c = Fraction(-((-first) // step)) * step
    while c <= con.b + 10 - offset:
        yield c
        c += step


def outcome(fn):
    """The verdict, or the InvariantError's message."""
    try:
        return fn()
    except InvariantError as exc:
        return f"InvariantError: {exc}"


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_acceptance_lattice_matches_reference(case):
    datum = build_datum(case)
    points = list(default_window(case, Fraction(1, 6)))
    assert len(points) >= 91
    for c in points:
        assert classify_scalar(datum, c) == reference(datum, c), c


# DIII(10) takes about 10 s, nearly all of it in the rational reference, so
# it runs under -m slow; its verdicts stay in tier-1 through
# test_oracle_matches_closed_form_at_every_admissible_rank.
@pytest.mark.parametrize("case", [
    pytest.param(case, id=case.label, marks=[pytest.mark.slow] if case.label == "DIII(10)" else [])
    for case in HIGH_RANK
])
def test_high_rank_windows_match_reference(case):
    datum = build_datum(case)
    nonempty = 0
    for c in default_window(case, Fraction(1)):
        got = classify_scalar(datum, c)
        assert got == reference(datum, c), c
        nonempty += bool(got.terms)
    assert nonempty >= 10


def small_cases():
    """Every case of ambient dimension at most 8."""
    out = [HermitianCase("AIII", p=p, q=q) for p in range(1, 8) for q in range(1, 9 - p)]
    for tag in ("CI", "BI", "DI", "DIII"):
        out += [HermitianCase(tag, n=n) for n in range(2, 9)]
    return out + [HermitianCase("EIII"), HermitianCase("EVII")]


@st.composite
def scalar_points(draw):
    case = draw(st.sampled_from(small_cases()))
    datum = build_datum(case)
    if draw(st.booleans()):
        c = Fraction(draw(st.integers(-80, 80)), draw(st.integers(1, 12)))
    else:
        # c = (k - a_beta) / b_beta puts beta in the support at level k.
        nil = draw(st.sampled_from(datum.integer_view.nilradical))
        k = draw(st.integers(1, 12))
        c = Fraction(k * nil.norm - nil.a, nil.b)
    return datum, c


@settings(max_examples=100, deadline=None)
@given(scalar_points())
def test_hypothesis_matches_reference(point):
    datum, c = point
    assert classify_scalar(datum, c) == reference(datum, c)


def test_drawn_levels_give_nonempty_support():
    datum = build_datum(HermitianCase("EVII"))
    for nil in datum.integer_view.nilradical:
        c = Fraction(3 * nil.norm - nil.a, nil.b)
        assert classify_scalar(datum, c).terms


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_integer_normalizer_matches_normalize(case):
    # a replaced datum derives its own view, so its memo starts cold
    datum = replaced(build_datum(case))
    view = datum.integer_view
    for j, beta in enumerate(datum.nilradical_roots):
        for k in range(1, 13):
            form = normalize(datum, sub(datum.rho, tuple(k * x for x in beta)))
            for rep, word in (chamber(view, j, k), fresh_descent(view, j, k)):
                assert (rep is not None) == form.is_regular, (beta, k)
                if rep is not None:
                    assert tuple(Fraction(x, view.denom) for x in rep) == form.rep
                    assert len(word) == form.steps


def scaled(datum):
    """The datum's own weights, scaled by its view's D."""
    return scaled_datum(datum, datum.integer_view.denom)


def walls(ref, root):
    """The positive levels dot(R, A) / dot(B, A), in increasing order, at which
    R - k*B meets the wall of a Levi positive root A of the scaled datum ref;
    B is root."""
    out = set()
    for a in ref.levi_positive:
        r, b = dot(ref.rho, a), dot(root, a)
        if r * b > 0:
            out.add(Fraction(r, b))
    return sorted(out)


def chamber(view, j, k):
    """(w*v, w) for the term v = R - k*B of root j, read off the entry
    weyl's memo gives it; (None, ()) on a wall."""
    entry = _line_chamber(view, j, k)
    if entry is None:
        return None, ()
    _, _, wr, wb, word = entry
    return tuple(r - k * b for r, b in zip(wr, wb)), word


def records(view):
    """weyl's records (singular, entries) by root index, the memo's only keys."""
    assert all(type(j) is int for j in view.words)
    return view.words


def line_record(view, j):
    """weyl's record (singular, entries) of root j, which a first
    term at level 1 builds if the root has none yet."""
    if j not in view.words:
        chamber(view, j, 1)
    return view.words[j]


def fresh_descent(view, j, k):
    """chamber(view, j, k) from a record of root j that holds no
    entries, so that a level off the singular ones is descended afresh;
    the root's record is put back afterwards."""
    return fresh_entry(view, j, k)[0]


def fresh_entry(view, j, k):
    """fresh_descent's (rep, word) and the entries its record then holds:
    one (lo, hi, w*R, w*B, w) after a descent, none at a singular level."""
    held = view.words.get(j)
    singular = held[0] if held else weyl._line_record(view, view.nilradical[j].root)[0]
    view.words[j] = singular, ()
    try:
        return chamber(view, j, k), view.words[j][1]
    finally:
        if held is None:
            del view.words[j]
        else:
            view.words[j] = held


def test_singular_levels_are_the_wall_hits():
    hits = 0
    for case in SWEEP_CASES + HIGH_RANK + [HermitianCase("CI", n=20)]:
        datum = build_datum(case)
        view, ref = datum.integer_view, scaled(datum)
        # R is strictly Levi dominant, so R - k*B meets the wall of A only at
        # k = dot(R, A) / dot(B, A): off the singular levels every term is
        # regular, and the descent, which scans no walls, never meets one.
        assert all(dot(view.rho, a) > 0 for a in ref.levi_positive), case
        for j, nil in enumerate(view.nilradical):
            singular = line_record(view, j)[0]
            assert singular == {int(w) for w in walls(ref, nil.root) if w.denominator == 1}
            for k in range(1, max(singular, default=0) + 41):
                rep, _ = fresh_descent(view, j, k)
                assert (k in singular) == (rep is None), (case, j, k)
                hits += rep is None
    assert hits


@pytest.mark.parametrize(
    "case", SWEEP_CASES + HIGH_RANK, ids=CASE_IDS + [c.label for c in HIGH_RANK]
)
def test_interval_words_match_a_fresh_descent(case):
    # a replaced datum derives its own view, so the first pass starts cold;
    # it runs down the levels, so each new entry goes before those held
    datum = replaced(build_datum(case))
    view, ref = datum.integer_view, scaled(datum)
    for order in (reversed, iter):
        for j, nil in enumerate(view.nilradical):
            for k in order(range(1, int(max(walls(ref, nil.root), default=0)) + 3)):
                (rep, word), stored = fresh_entry(view, j, k)
                assert chamber(view, j, k) == (rep, word), (j, k)
                # the tracked pairings give the full-coordinate descent's
                # word, representative and interval
                if rep is None:
                    assert stored == (), (j, k)
                else:
                    [(lo, hi, *_)] = stored
                    assert (rep, word, lo, hi) == scaled_descent(ref, nil.root, k), (j, k)
            # the root's record holds its entries
            _, entries = view.words[j]
            assert entries, j
        assert records(view)
    assert_intervals_are_the_dominant_levels(datum)


def assert_intervals_are_the_dominant_levels(datum):
    """Each memo entry's lo..hi holds exactly the levels k at which w*R - k*w*B
    is dominant, and each root's entries are sorted and pairwise disjoint."""
    view, ref = datum.integer_view, scaled(datum)
    for j, (_, entries) in records(view).items():
        for lo, hi, wr, wb, _ in entries:
            assert lo <= hi
            for k in range(1, int(max(walls(ref, view.nilradical[j].root), default=0)) + 3):
                rep = tuple(r - k * b for r, b in zip(wr, wb))
                dominant = all(dot(rep, root) > 0 for root in ref.levi_simples)
                assert (lo <= k <= hi) == dominant, (j, k)
        for (_, hi, *_), (lo, *_) in zip(entries, entries[1:]):
            assert hi < lo, j


def packed(u, width):
    """P(u) by its definition: the sum of u[i] * 2**(width*(d-1-i))."""
    d = len(u)
    return sum(x * 2 ** (width * (d - 1 - i)) for i, x in enumerate(u))


def assert_packs_hold(view, packs):
    """Every pair of a walk's table packs[width][(j, lo)] is (P(w*R), P(w*B))
    at its width, for the entry of root j whose interval starts at lo."""
    assert packs
    for width, table in packs.items():
        for (j, lo), pair in table.items():
            [(wr, wb)] = [(wr, wb) for lo_, _, wr, wb, _ in view.words[j][1] if lo_ == lo]
            assert pair == (packed(wr, width), packed(wb, width)), (width, j, lo)


def served(view, top):
    """The highest level a walk packs at the width it takes for top."""
    width = jantzen._line_width(view, top)
    hi = 2 * top
    while jantzen._line_width(view, hi) == width:
        hi *= 2
    lo = top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if jantzen._line_width(view, mid) == width else (lo, mid)
    return lo


def beyond(x, rr, t, n):
    """Whether x > sqrt(rr) + t*sqrt(n), for x > 0 and t, n, rr >= 0, in integers:
    x - t*sqrt(n) > sqrt(rr) holds when x*x > t*t*n and, squared once more,
    s = x*x + t*t*n - rr exceeds 2*x*t*sqrt(n)."""
    s = x * x + t * t * n - rr
    return x * x > t * t * n and s > 0 and s * s > 4 * x * x * t * t * n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packing_is_injective_and_lexicographic_at_the_derived_width(data):
    # A Levi word is orthogonal, so each coordinate of a representative at
    # level k is at most |R| + k*|B|; a walk's width puts that below
    # 2**(width-1) up to its top level, and there P orders vectors as
    # tuples.  Deriving the width writes nothing to the memo.
    case = data.draw(st.sampled_from(small_cases() + HIGH_RANK + [HermitianCase("CI", n=20)]))
    top = data.draw(st.one_of(st.integers(1, 200), st.integers(1, 10**45)))
    view = replaced(build_datum(case)).integer_view
    width = jantzen._line_width(view, top)
    assert view.words == {}
    assert jantzen._line_width(view, top - 1) <= width <= jantzen._line_width(view, top + 1)
    half = 1 << (width - 1)
    norm = max(nil.norm for nil in view.nilradical)
    assert beyond(half, dot(view.rho, view.rho), top, norm)
    digit = st.integers(-(half - 1), half - 1)
    u = data.draw(st.lists(digit, min_size=len(view.rho), max_size=len(view.rho)))
    cut = data.draw(st.integers(0, len(u)))
    v = u[:cut] + data.draw(st.lists(digit, min_size=len(u) - cut, max_size=len(u) - cut))
    pu, pv = jantzen._pack(u, width), jantzen._pack(v, width)
    assert (pu, pv) == (packed(u, width), packed(v, width))
    assert (pu == pv) == (u == v)
    assert (pu < pv) == (u < v)


@pytest.mark.parametrize("width", [2, 9, 64, 141])
def test_one_bit_narrower_packing_collides(width):
    # (0, 2**(s-1)) and (1, -2**(s-1)) are told apart at width s + 1, and
    # share their key at width s, one bit narrower.
    half = 1 << (width - 1)
    assert jantzen._pack((0, half), width) == jantzen._pack((1, -half), width)
    assert jantzen._pack((0, half), width + 1) != jantzen._pack((1, -half), width + 1)


def test_memo_is_packed_at_its_width():
    # The memo keeps vectors: one-point requests at any level, however wide,
    # leave every record it already holds the same object, and a grid packs
    # each entry it fetches into its own table, at its walk's width.
    datum = replaced(build_datum(HermitianCase("CI", n=4)))
    view = datum.integer_view
    window = list(default_window(datum.case, Fraction(1, 2)))
    first = [classify_scalar(datum, c) for c in window]
    held = dict(records(view))
    assert any(entries for _, entries in held.values())
    for c in (Fraction(10**12), Fraction(10**40 + 1, 2)):
        assert max(t.level for t in classify_scalar(datum, c).terms) > 10**11
        assert [classify_scalar(datum, c) for c in window] == first
        assert all(view.words[j] is record for j, record in held.items())
        assert_intervals_are_the_dominant_levels(datum)
    line = jantzen.ScalarGrid(datum, Fraction(1, 2))
    ms = range(-8, 9)
    points = [classify_scalar(datum, m * line.step) for m in ms]
    assert_grid_decides(line, ms, [(v.verdict, v.route) for v in points])
    top = int(max(t.level for v in points for t in v.terms))
    assert list(line._packs) == [jantzen._line_width(view, top)]
    assert_packs_hold(view, line._packs)
    wide = range(2 * 10**12, 2 * 10**12 + 5)
    line.decide(wide)
    narrow, width = sorted(line._packs)
    assert width > narrow
    assert_packs_hold(view, line._packs)


def crossing_window(datum, step, near, half=3):
    """Grid indices m about near / step across which a walk's width steps up.

    The levels at m0 = round(near / step) take a width that serves levels
    up to some S, and mx is the first m at which a root's level passes S.
    No level at an m below mx passes S, so a walk of one point below mx
    packs no wider than m0's, and the walk at mx packs wider.  The window
    starts at the last support point below mx, or half points below it,
    whichever is first, and ends half points above it.
    """
    progressions = jantzen.ScalarGrid(datum, step)._progressions
    m0 = round(near / step)
    top = max(k + (m0 - first) // period * rise for _, first, period, k, rise in progressions)
    level = served(datum.integer_view, top)
    mx = min(
        first + max(0, (level - k) // rise + 1) * period for _, first, period, k, rise in progressions
    )
    # from the last support point below mx, so that the window crosses
    below = max(mx - 1 - (mx - 1 - first) % period for _, first, period, _, _ in progressions)
    return range(min(below, mx - half), mx + half + 1)


def assert_classes_are_the_representatives(verdict):
    """Each class of the certificate holds the regular terms of one
    representative, with their summed signs; the classes run in the
    representatives' order, one per representative."""
    regular = [t for t in verdict.terms if t.chamber.is_regular]
    assert sum(len(g.members) for g in verdict.certificate) == len(regular)
    for g in verdict.certificate:
        assert all(t.chamber.rep == g.rep for t in g.members)
        assert g.net_sign == sum(t.chamber.sign for t in g.members)
    reps = [g.rep for g in verdict.certificate]
    assert reps == sorted(set(reps))


WIDE_SAMPLE = ["AIII(2,3)", "CI(4)", "BI(3)", "DI(4)", "DIII(5)", "EIII", "EVII"]
WIDE = [(near, Fraction(1, t)) for near in (10**12, 10**40) for t in (2, 7)]


# Tier-1 runs one case of each tag; the slow run takes every admissible case.
@pytest.mark.parametrize("case", [
    pytest.param(case, id=case.label, marks=[] if case.label in WIDE_SAMPLE else [pytest.mark.slow])
    for case in ADMISSIBLE_CASES
])
def test_wide_levels_match_per_point_and_reference(case):
    # Levels near 10**12 and 10**40 need keys far wider than a machine
    # word.  Point by point the walk's width steps up inside each window;
    # the grid packs a window's first points at one width and the whole at
    # a wider one.  The rational reference takes up to 15 s a point at rank
    # 20, so past the sampled cases it decides only the widest window's
    # point at which the width stepped up; every point's classes are held
    # to the representatives of its terms.
    for near, step in WIDE:
        datum = replaced(build_datum(case))
        view = datum.integer_view
        ms = crossing_window(datum, step, near)
        per_point, widest, stepped = [], 0, 0
        for m in ms:
            got = classify_scalar(datum, m * step)
            assert_classes_are_the_representatives(got)
            per_point.append((got.verdict, got.route))
            # the width the point's walk packs at, 0 on an empty support
            width = max((jantzen._line_width(view, int(t.level)) for t in got.terms), default=0)
            widened = 0 < widest < width
            stepped += widened
            widest = max(widest, width)
            if case.label in WIDE_SAMPLE or widened and (near, step) == WIDE[-1]:
                assert got == reference(datum, m * step), (near, step, m)
        assert stepped, (near, step)
        line = jantzen.ScalarGrid(replaced(datum), step)
        assert_grid_decides(line, ms[:3], per_point[:3], (near, step))
        [width] = line._packs
        assert_grid_decides(line, ms, per_point, (near, step))
        assert max(line._packs) > width, (near, step)
        assert_packs_hold(line.view, line._packs)


def test_a_wide_request_inside_a_walk_changes_no_verdict(monkeypatch):
    # A datum and its memo may be shared across threads.  Interleave without
    # a thread: right after the first fetch of each walk, a request at
    # c = 10**40 runs on the same datum, from a fresh view each point.
    # Every point keeps its clean verdict and route, and so does a grid.
    fetch = jantzen._line_chamber
    pending = []

    def line_chamber(view, j, k):
        entry = fetch(view, j, k)
        if pending:
            classify_scalar(pending.pop(), 10**40)
        return entry

    grid = range(-20, 21)
    step = Fraction(1, 2)
    for case in small_cases():
        base = build_datum(case)
        clean = [classify_scalar(base, m * step) for m in grid]
        monkeypatch.setattr(jantzen, "_line_chamber", line_chamber)
        for m, want in zip(grid, clean):
            datum = replaced(base)
            pending[:] = [datum]
            got = classify_scalar(datum, m * step)
            assert got == want, (case, m)
        datum = replaced(base)
        pending[:] = [datum]
        line = jantzen.ScalarGrid(datum, step)
        assert_grid_decides(line, grid, [(v.verdict, v.route) for v in clean], case)
        monkeypatch.setattr(jantzen, "_line_chamber", fetch)


def test_word_memo_is_used_and_bounded():
    datum = replaced(build_datum(HermitianCase("CI", n=8)))
    regular = 0
    for c in default_window(datum.case, Fraction(1, 6)):
        regular += sum(t.chamber.is_regular for t in classify_scalar(datum, c).terms)
    view = datum.integer_view
    entries = sum(len(e) for _, e in records(view).values())
    ref = scaled(datum)
    assert entries <= sum(len(walls(ref, nil.root)) + 1 for nil in view.nilradical)
    assert 10 * entries < regular


def test_integer_view_scales_the_datum():
    for case in SWEEP_CASES + HIGH_RANK:
        datum = build_datum(case)
        view = datum.integer_view
        scale = lambda w: tuple(x * view.denom for x in w)
        assert view.rho == scale(datum.rho) and view.zeta == scale(datum.zeta)
        assert view.theta_rho == dot(view.rho, scale(datum.theta_u))
        # the view keeps the Levi roots' norms, not the roots
        norm = lambda a: dot(scale(a), scale(a))
        assert view.levi_norms == tuple(map(norm, datum.levi_positive))
        assert view.simple_norms == tuple(map(norm, datum.levi_simples))
        for beta, nil in zip(datum.nilradical_roots, view.nilradical):
            assert nil.root == scale(beta)
            assert nil.norm == inner(nil.root, nil.root)
            assert nil.theta_root == dot(nil.root, scale(datum.theta_u))
            # a_beta and b_beta are the pairings of rho and zeta with beta
            assert Fraction(nil.a, nil.norm) == 2 * inner(datum.rho, beta) / inner(beta, beta)
            assert Fraction(nil.b, nil.norm) == 2 * inner(datum.zeta, beta) / inner(beta, beta)


def test_levi_tables_hold_the_views_own_dots():
    # weyl's descent reads these tables in place of dots and whole vectors
    assert len(ADMISSIBLE_CASES) == 268
    for case in ADMISSIBLE_CASES:
        datum = build_datum(case)
        view = datum.integer_view
        ref = scaled(datum)
        simples, positive = ref.levi_simples, ref.levi_positive
        assert view.rho_levi == tuple(dot(view.rho, a) for a in positive), case
        assert view.rho_simple == tuple(dot(view.rho, a) for a in simples), case
        assert len(view.gram_rows) == len(view.simple_coords) == len(simples), case
        for a, row, coords in zip(simples, view.gram_rows, view.simple_coords):
            gram = [(t, dot(a, b)) for t, b in enumerate(simples)]
            assert row == tuple((t, g) for t, g in gram if g), case
            rebuilt = [0] * len(a)
            for i, x in coords:
                assert x, case
                rebuilt[i] = x
            assert tuple(rebuilt) == a, case
        # coordinate i of every Levi positive root with a nonzero one there
        assert len(view.levi_columns) == len(view.rho), case
        for i, column in enumerate(view.levi_columns):
            assert column == tuple((t, a[i]) for t, a in enumerate(positive) if a[i]), case


def test_records_are_built_for_support_roots_only():
    # Each point runs on a replaced datum, whose view starts with no records:
    # after one classify, exactly the support's roots hold one.
    seen = set()
    for case in SWEEP_CASES:
        base = build_datum(case)
        index = {beta: j for j, beta in enumerate(base.nilradical_roots)}
        for c in default_window(case, Fraction(1, 2)):
            datum = replaced(base)
            got = classify_scalar(datum, c)
            support = jantzen_support(base, scalar_parameter_weight(base, c))
            assert set(records(datum.integer_view)) == {index[beta] for beta in support}, (case, c)
            if not support:
                assert got.route == ROUTE_EMPTY_SUPPORT
                assert datum.integer_view.words == {}
            seen.add(min(len(support), 2))
    # empty, single-root and larger supports all occur
    assert seen == {0, 1, 2}


def test_replaced_datum_derives_a_fresh_view():
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    assert datum.integer_view is datum.integer_view
    classify_scalar(datum, -1)
    assert records(datum.integer_view)
    crippled = replaced(datum, levi_positive=datum.levi_positive[:1])
    assert len(crippled.integer_view.levi_norms) == 1
    assert not crippled.integer_view.words


# ---------------------------------------------------------------------------
# invariant coverage: each reference InvariantError has an integer twin


def test_dropped_wall_root_trips_both_normalizers():
    # Without the wall of e1 - e2 the singular levels miss its wall hits, so
    # a term on it meets the wall in the descent, on both paths.
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    wall = weight([1, -1, 0, 0])
    kept = tuple(a for a in datum.levi_positive if a != wall)
    assert len(kept) == len(datum.levi_positive) - 1
    crippled = replaced(datum, levi_positive=kept)
    grid = [Fraction(k, 2) for k in range(-24, 25)]
    assert_paths_agree_and_trip(crippled, grid, "wall hit during descent after a clean wall scan")


def test_step_bound_trips_both_normalizers():
    # with no positive Levi roots listed the bound is 0, yet terms need a step
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    crippled = replaced(datum, levi_positive=())
    grid = [Fraction(k, 2) for k in range(-24, 25)]
    assert_paths_agree_and_trip(crippled, grid, "chamber descent exceeded the positive-root bound")


def assert_paths_agree_and_trip(crippled, grid, message):
    # The grid decision decides one point at a time, on its own copy of the
    # datum, and must raise where the per-point oracle does.
    step = grid[1] - grid[0]
    line = jantzen.ScalarGrid(replaced(crippled), step)
    tripped = 0
    for c in grid:
        got = outcome(lambda: classify_scalar(crippled, c))
        assert got == outcome(lambda: reference(crippled, c)), c
        m = int(c / step)
        on_grid = outcome(lambda: line.decide(range(m, m + 1)).get(0, (SIMPLE, ROUTE_EMPTY_SUPPORT)))
        assert on_grid == (got if isinstance(got, str) else (got.verdict, got.route)), c
        tripped += got == f"InvariantError: {message}"
    assert tripped


def test_non_levi_integral_term_trips_both_oracles():
    # shifting rho by (1/2, 0, 1/2, 0) keeps e1 - e3 at an integer level
    # but gives every image a half-integer pairing with e1 - e2
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    shift = weight([Fraction(1, 2), 0, Fraction(1, 2), 0])
    crippled = replaced(datum, rho=add(datum.rho, shift))
    grid = [Fraction(k, 4) for k in range(-24, 25)]
    assert_paths_agree_and_trip(crippled, grid, "support term is not Levi integral")


def test_every_admissible_root_is_levi_integral():
    # Every root of every valid datum gets its record: Levi integrality is
    # a property of the datum, so no valid term is ever refused.  The record
    # read off the view's coordinate columns equals the one with a full dot
    # per Levi positive root.
    roots = 0
    for case in ADMISSIBLE_CASES:
        datum = build_datum(case)
        view, ref = datum.integer_view, scaled(datum)
        for nil in view.nilradical:
            record = weyl._line_record(view, nil.root)
            assert record == line_record_reference(ref, nil.root), case
            singular, entries = record
            assert all(k > 0 for k in singular) and entries == (), case
            roots += 1
    assert roots > len(ADMISSIBLE_CASES)


def _shifted_rho(case, *shift):
    datum = build_datum(case)
    return replaced(datum, rho=add(datum.rho, weight(shift)))


def _tampered_root(case, j, *root):
    datum = build_datum(case)
    roots = datum.nilradical_roots
    return replaced(datum, nilradical_roots=roots[:j] + (weight(root),) + roots[j + 1 :])


def _dropped_levi(case, keep):
    datum = build_datum(case)
    return replaced(datum, levi_positive=tuple(filter(keep, datum.levi_positive)))


H = Fraction(1, 2)
A22, DI2, E6, E7 = (HermitianCase("AIII", p=2, q=2), HermitianCase("DI", n=2),
                    HermitianCase("EIII"), HermitianCase("EVII"))
# name -> (crippled datum, whether some root's record is refused); the
# AIII(2,2) data are those of the invariant tests below
CRIPPLED = {
    "AIII(2,2) shifted rho": (lambda: _shifted_rho(A22, H, 0, H, 0), True),
    "AIII(2,2) tampered root": (lambda: _tampered_root(A22, 2, 1, -H, -H, 0), True),
    "AIII(2,2) dropped wall": (lambda: _dropped_levi(A22, lambda a: a != (1, -1, 0, 0)), False),
    "AIII(2,2) no Levi roots": (lambda: _dropped_levi(A22, lambda a: False), False),
    # DI(2)'s Levi is a torus: no Levi root can refuse a record
    "DI(2) shifted rho": (lambda: _shifted_rho(DI2, H, 0), False),
    "DI(2) tampered root": (lambda: _tampered_root(DI2, 0, 1, -H), False),
    # the half-integral E6 and E7 roots have no zero coordinate
    "EIII shifted rho": (lambda: _shifted_rho(E6, H, 0, 0, 0, 0, 0, 0, 0), True),
    "EIII tampered root": (lambda: _tampered_root(E6, 0, 1, H, H, H, -H, -H, -H, H), True),
    "EVII shifted rho": (lambda: _shifted_rho(E7, 0, 0, H, 0, 0, 0, 0, 0), True),
    "EVII tampered root": (lambda: _tampered_root(E7, 3, H, -H, H, -H, H, H, H, -H), True),
    "EVII dropped Levi roots": (lambda: _dropped_levi(E7, lambda a: a[0] >= 0), False),
}


@pytest.mark.parametrize("name", CRIPPLED)
def test_column_records_match_full_dot_records_on_crippled_data(name):
    make, refused = CRIPPLED[name]
    datum = make()
    view, ref = datum.integer_view, scaled(datum)
    outcomes = [
        (outcome(lambda: weyl._line_record(view, nil.root)),
         outcome(lambda: line_record_reference(ref, nil.root)))
        for nil in view.nilradical
    ]
    assert all(column == full for column, full in outcomes), name
    raised = [column for column, _ in outcomes if isinstance(column, str)]
    assert set(raised) <= {"InvariantError: support term is not Levi integral"}, name
    assert bool(raised) == refused, name


# name -> crippled datum: every datum of CRIPPLED, and a root with -1/3 and
# -2/3 coordinates, which the built datum's D = 2 does not clear
REPLACED = {name: make for name, (make, _) in CRIPPLED.items()} | {
    "AIII(2,2) root in thirds": lambda: _tampered_root(A22, 2, 1, -Fraction(1, 3), -Fraction(2, 3), 0),
}


@pytest.mark.parametrize("name", REPLACED)
def test_view_vectors_are_d_times_the_datum_weights(name):
    # Each vector of the view, the Levi roots read back from its coordinate
    # lists included, is D times the datum's weight, whatever denominators a
    # replaced field carries.
    datum = REPLACED[name]()
    view = datum.integer_view
    times = lambda w: tuple(view.denom * x for x in w)
    assert all(type(x) is int for x in view.rho + view.zeta), name
    assert (view.rho, view.zeta) == (times(datum.rho), times(datum.zeta)), name
    theta = times(datum.theta_u)
    assert view.theta_rho == dot(view.rho, theta), name
    for nil, beta in zip(view.nilradical, datum.nilradical_roots, strict=True):
        assert all(type(x) is int for x in nil.root), name
        assert nil.root == times(beta) and nil.theta_root == dot(nil.root, theta), name
    dim = len(view.rho)
    simples = [tuple(dict(coords).get(i, 0) for i in range(dim)) for coords in view.simple_coords]
    assert simples == list(map(times, datum.levi_simples)), name
    positive = [[0] * dim for _ in datum.levi_positive]
    for i, column in enumerate(view.levi_columns):
        for t, x in column:
            positive[t][i] = x
    assert list(map(tuple, positive)) == list(map(times, datum.levi_positive)), name


def test_line_records_take_no_dot():
    # Each record's dots come from the view's coordinate columns, and a
    # fresh descent's from each Levi simple root's nonzero coordinates.
    assert not hasattr(weyl, "dot")
    for case in (HermitianCase("CI", n=20), HermitianCase("DI", n=2), HermitianCase("EVII")):
        datum = replaced(build_datum(case))
        view = datum.integer_view
        simples = scaled(datum).levi_simples
        descents = 0
        for j in range(len(view.nilradical)):
            for k in (1, 2, 3):
                rep, word = fresh_descent(view, j, k)
                if rep is not None:
                    assert all(dot(rep, a) > 0 for a in simples), (case, j, k)
                    descents += bool(word)
        # DI(2)'s Levi is a torus: its descents are empty words
        assert descents or case == HermitianCase("DI", n=2), case


def test_half_integral_root_is_refused_at_every_level():
    # B = D*(e1 - e2/2 - e3/2) pairs to 3/2 with e1 - e2, so its terms are
    # Levi integral at even levels only.  Its record is refused on its first
    # term, whatever the level; the reference, which checks term by term,
    # still decides the even levels.
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    roots = datum.nilradical_roots
    j = roots.index(weight([1, 0, -1, 0]))
    tampered = weight([1, Fraction(-1, 2), Fraction(-1, 2), 0])
    crippled = replaced(datum, nilradical_roots=roots[:j] + (tampered,) + roots[j + 1 :])
    nil = crippled.integer_view.nilradical[j]
    for k in (1, 2, 3, 4):
        c = Fraction(k * nil.norm - nil.a, nil.b)
        assert tampered in jantzen_support(crippled, scalar_parameter_weight(crippled, c)), k
        with pytest.raises(InvariantError, match="^support term is not Levi integral$"):
            classify_scalar(crippled, c)
        if k % 2 == 0:
            assert reference(crippled, c).terms, k


@pytest.mark.parametrize("dropped", [(2, 5), (1, 5)], ids=["e2-e5", "e1-e5"])
def test_certificate_falls_back_where_the_walls_are_incomplete(dropped, monkeypatch):
    # Without the wall of a Levi root, the singular levels miss its wall
    # hits, and a root's levels between two singular ones span two chambers;
    # each gets its own certified entry, and a level on the dropped wall
    # misses every entry and goes to the descent, as in the reference.
    datum = build_datum(HermitianCase("DIII", n=5))
    i, j = dropped
    root = weight([(t == i) - (t == j) for t in range(1, 6)])
    kept = tuple(a for a in datum.levi_positive if a != root)
    assert len(kept) == len(datum.levi_positive) - 1
    crippled = replaced(datum, levi_positive=kept)
    view = crippled.integer_view

    # Count the descents run for a root that already holds an entry: each
    # one adds an entry or raises.
    fallbacks = [0]

    def line_chamber(view, j, k):
        held = len(view.words[j][1]) if j in view.words else 0
        try:
            out = _line_chamber(view, j, k)
        except InvariantError:
            fallbacks[0] += held > 0
            raise
        fallbacks[0] += 0 < held < len(view.words[j][1])
        return out

    monkeypatch.setattr(jantzen, "_line_chamber", line_chamber)
    for c in (Fraction(k, 2) for k in range(-40, 41)):
        got = outcome(lambda: classify_scalar(crippled, c))
        assert got == outcome(lambda: reference(crippled, c)), c
    assert fallbacks[0] > 0
    assert_intervals_are_the_dominant_levels(crippled)


def test_theta_split_class_trips_both_oracles():
    # BI(3) at c = -1 holds a two-member class; e2 is not Levi fixed
    datum = build_datum(HermitianCase("BI", n=3))
    crippled = replaced(datum, theta_u=weight([0, 1, 0]))
    grid = [Fraction(k, 2) for k in range(-12, 7)]
    assert_paths_agree_and_trip(crippled, grid, "one chamber class carries two theta values")
