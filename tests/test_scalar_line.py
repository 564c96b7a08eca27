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
`reference.simplicity_oracle`, built on `normalize`, is the rational
reference.  Every comparison here is whole-verdict equality, certificates
included, and every InvariantError the reference can raise is triggered
on both paths.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ADMISSIBLE_CASES, SWEEP_CASES
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
from scalarverma.jantzen import ROUTE_EMPTY_SUPPORT, jantzen_support
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
    datum = dataclasses.replace(build_datum(case))
    view = datum.integer_view
    for j, beta in enumerate(datum.nilradical_roots):
        for k in range(1, 13):
            form = normalize(datum, sub(datum.rho, tuple(k * x for x in beta)))
            for rep, word in (_line_chamber(view, j, k), fresh_descent(view, j, k)):
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


def line_record(view, j):
    """weyl's record (singular, entries) of root j, which a first
    term at level 1 builds if the root has none yet."""
    if j not in view.words:
        _line_chamber(view, j, 1)
    return view.words[j]


def fresh_descent(view, j, k):
    """_line_chamber(view, j, k) from a record of root j that holds no
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
        return _line_chamber(view, j, k), view.words[j][1]
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
    datum = dataclasses.replace(build_datum(case))
    view, ref = datum.integer_view, scaled(datum)
    for order in (reversed, iter):
        for j, nil in enumerate(view.nilradical):
            for k in order(range(1, int(max(walls(ref, nil.root), default=0)) + 3)):
                (rep, word), stored = fresh_entry(view, j, k)
                assert _line_chamber(view, j, k) == (rep, word), (j, k)
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
        assert view.words
    assert_intervals_are_the_dominant_levels(datum)


def assert_intervals_are_the_dominant_levels(datum):
    """Each memo entry's lo..hi holds exactly the levels k at which w*R - k*w*B
    is dominant, and each root's entries are sorted and pairwise disjoint."""
    view, ref = datum.integer_view, scaled(datum)
    for j, (_, entries) in view.words.items():
        for lo, hi, wr, wb, _ in entries:
            assert lo <= hi
            for k in range(1, int(max(walls(ref, view.nilradical[j].root), default=0)) + 3):
                rep = tuple(r - k * b for r, b in zip(wr, wb))
                dominant = all(dot(rep, root) > 0 for root in ref.levi_simples)
                assert (lo <= k <= hi) == dominant, (j, k)
        for (_, hi, *_), (lo, *_) in zip(entries, entries[1:]):
            assert hi < lo, j


def test_word_memo_is_used_and_bounded():
    datum = dataclasses.replace(build_datum(HermitianCase("CI", n=8)))
    regular = 0
    for c in default_window(datum.case, Fraction(1, 6)):
        regular += sum(t.chamber.is_regular for t in classify_scalar(datum, c).terms)
    view = datum.integer_view
    entries = sum(len(e) for _, e in view.words.values())
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
            datum = dataclasses.replace(base)
            got = classify_scalar(datum, c)
            support = jantzen_support(base, scalar_parameter_weight(base, c))
            assert set(datum.integer_view.words) == {index[beta] for beta in support}, (case, c)
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
    assert datum.integer_view.words
    crippled = dataclasses.replace(datum, levi_positive=datum.levi_positive[:1])
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
    crippled = dataclasses.replace(datum, levi_positive=kept)
    grid = [Fraction(k, 2) for k in range(-24, 25)]
    assert_paths_agree_and_trip(crippled, grid, "wall hit during descent after a clean wall scan")


def test_step_bound_trips_both_normalizers():
    # with no positive Levi roots listed the bound is 0, yet terms need a step
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    crippled = dataclasses.replace(datum, levi_positive=())
    grid = [Fraction(k, 2) for k in range(-24, 25)]
    assert_paths_agree_and_trip(crippled, grid, "chamber descent exceeded the positive-root bound")


def assert_paths_agree_and_trip(crippled, grid, message):
    # The grid decision decides one point at a time, on its own copy of the
    # datum, and must raise where the per-point oracle does.
    step = grid[1] - grid[0]
    line = jantzen.ScalarGrid(dataclasses.replace(crippled), step)
    tripped = 0
    for c in grid:
        got = outcome(lambda: classify_scalar(crippled, c))
        assert got == outcome(lambda: reference(crippled, c)), c
        m = int(c / step)
        on_grid = outcome(lambda: line.decide(range(m, m + 1))[0])
        assert on_grid == (got if isinstance(got, str) else (got.verdict, got.route)), c
        tripped += got == f"InvariantError: {message}"
    assert tripped


def test_non_levi_integral_term_trips_both_oracles():
    # shifting rho by (1/2, 0, 1/2, 0) keeps e1 - e3 at an integer level
    # but gives every image a half-integer pairing with e1 - e2
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    shift = weight([Fraction(1, 2), 0, Fraction(1, 2), 0])
    crippled = dataclasses.replace(datum, rho=add(datum.rho, shift))
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
    return dataclasses.replace(datum, rho=add(datum.rho, weight(shift)))


def _tampered_root(case, j, *root):
    datum = build_datum(case)
    roots = datum.nilradical_roots
    return dataclasses.replace(datum, nilradical_roots=roots[:j] + (weight(root),) + roots[j + 1 :])


def _dropped_levi(case, keep):
    datum = build_datum(case)
    return dataclasses.replace(datum, levi_positive=tuple(filter(keep, datum.levi_positive)))


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


def test_line_records_take_no_dot():
    # Each record's dots come from the view's coordinate columns, and a
    # fresh descent's from each Levi simple root's nonzero coordinates.
    assert not hasattr(weyl, "dot")
    for case in (HermitianCase("CI", n=20), HermitianCase("DI", n=2), HermitianCase("EVII")):
        datum = dataclasses.replace(build_datum(case))
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
    crippled = dataclasses.replace(datum, nilradical_roots=roots[:j] + (tampered,) + roots[j + 1 :])
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
    crippled = dataclasses.replace(datum, levi_positive=kept)
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
    crippled = dataclasses.replace(datum, theta_u=weight([0, 1, 0]))
    grid = [Fraction(k, 2) for k in range(-12, 7)]
    assert_paths_agree_and_trip(crippled, grid, "one chamber class carries two theta values")
