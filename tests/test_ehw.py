"""Closed-form classification, reduction constants, line geometry."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    ADMISSIBLE_CASES,
    SWEEP_CASES,
    abc_lattice,
    progression_contains_reference,
    reducible_reference,
    replaced,
)
from ehw_tables import in_table_set, table_abc
from reference import abc_verdict_reference, closed_form_reference
from scalarverma import (
    HermitianCase,
    InsufficientWindowError,
    InvariantError,
    abc_constants,
    abc_verdict,
    build_datum,
    classify_scalar,
    closed_form_reducible,
    ehw,
    line_offset,
    progression_summary,
)
from scalarverma.ehw import (
    INDETERMINATE,
    KNOWN_REDUCIBLE,
    KNOWN_SIMPLE,
    ABCConstants,
    _real_rank,
    closed_form_grid,
    screen_grid,
    special_line,
)
from scalarverma.ratvec import add, inner, pairing, weight
from scalarverma.rootdata import NilradicalLevel, scalar_parameter_weight

Q = Fraction

CASE_IDS = [c.label for c in SWEEP_CASES]

# First-reduction constants frozen per instance: (a, b, c).  Where a = b
# the lattice is the single point a and c is 1 by convention.
EXPECTED_ABC = {
    "AIII(1,1)": (1, 1, 1),
    "AIII(2,2)": (2, 3, 1),
    "AIII(2,3)": (3, 4, 1),
    "AIII(3,3)": (3, 5, 1),
    "CI(2)": (Q(3, 2), 2, Q(1, 2)),
    "CI(3)": (2, 3, Q(1, 2)),
    "CI(4)": (Q(5, 2), 4, Q(1, 2)),
    "BI(2)": (Q(3, 2), 2, Q(1, 2)),
    "BI(3)": (Q(5, 2), 4, Q(3, 2)),
    "BI(4)": (Q(7, 2), 6, Q(5, 2)),
    "DI(2)": (1, 1, 1),
    "DI(3)": (2, 3, 1),
    "DI(4)": (3, 5, 2),
    "DIII(2)": (1, 1, 1),
    "DIII(3)": (3, 3, 1),
    "DIII(4)": (3, 5, 2),
    "DIII(5)": (5, 7, 2),
    "EIII": (8, 11, 3),
    "EVII": (9, 17, 4),
}

EXPECTED_OFFSET = {
    "AIII(2,3)": 4,
    "AIII(3,3)": 5,
    "CI(3)": 3,
    "BI(3)": 4,
    "DI(4)": 5,
    "DIII(4)": 5,
    "EIII": 11,
    "EVII": 17,
}


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_abc_constants_frozen(case):
    con = abc_constants(case)
    a, b, c = EXPECTED_ABC[case.label]
    assert (con.a, con.b, con.c) == (Q(a), Q(b), Q(c))


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_abc_lattice_shape(case):
    con = abc_constants(case)
    lattice = abc_lattice(con)
    assert lattice[0] == con.a and lattice[-1] <= con.b
    assert con.c > 0
    steps = {y - x for x, y in zip(lattice, lattice[1:])}
    assert steps <= {con.c}
    assert ((con.b - con.a) / con.c).denominator == 1
    assert lattice[-1] == con.b


def test_line_offset_frozen():
    for label, off in EXPECTED_OFFSET.items():
        case = next(c for c in SWEEP_CASES if c.label == label)
        assert line_offset(case) == off


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda case: case.label)
def test_offset_is_gamma_level_of_rho(case):
    # line_offset reads a / norm of gamma's integer view entry; the Fraction
    # pairing of rho with gamma is its reference
    datum = build_datum(case)
    assert line_offset(case) == pairing(datum.rho, datum.gamma)


def test_gamma_level_is_derived_from_the_view():
    # _gamma_level reads only the view: the nilradical root of greatest a,
    # ties to the larger root.  From either source it is the entry of
    # D*gamma, the datum's own gamma scaled by the view's denominator.
    for case in ADMISSIBLE_CASES:
        built = build_datum(case)
        for datum in (built, replaced(built)):
            view = datum.integer_view
            gamma = ehw._gamma_level(datum)
            assert gamma.root == tuple([view.denom * x for x in datum.gamma]), case.label
    # DI(2) alone ties: its two nilradical roots have equal a and norm, so B
    # does not depend on the tie, which goes to gamma = e1 + e2.
    di2 = build_datum(HermitianCase("DI", n=2))
    first, second = di2.integer_view.nilradical
    assert (first.a, first.norm) == (second.a, second.norm)
    assert di2.gamma == weight([1, 1]) and ehw._gamma_level(di2) == second
    # DIII(2): gamma is the noncompact simple root, its one nilradical root.
    diii2 = build_datum(HermitianCase("DIII", n=2))
    assert diii2.gamma == diii2.noncompact_simple == weight([1, 1])
    assert (ehw._gamma_level(diii2),) == diii2.integer_view.nilradical


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_special_line_geometry(case):
    datum = build_datum(case)
    for c in (Q(-7, 3), Q(0), Q(5, 2)):
        lam = scalar_parameter_weight(datum, c)
        line = special_line(datum, lam)
        assert line.z == c + line_offset(case)
        # the base point plus rho is orthogonal to the gamma direction
        assert inner(add(line.lambda0, datum.rho), datum.gamma) == 0
        # and lambda0 recovers lam when pushed back along zeta
        shifted = tuple(
            x + line.z * t for x, t in zip(line.lambda0, datum.zeta)
        )
        assert shifted == lam


def _known_real_rank(case: HermitianCase) -> int:
    if case.tag == "AIII":
        return min(case.p, case.q)
    if case.tag == "CI":
        return case.n
    if case.tag == "DIII":
        return case.n // 2
    return {"BI": 2, "DI": 2, "EIII": 2, "EVII": 3}[case.tag]


def test_real_rank_matches_known_values():
    for case in ADMISSIBLE_CASES:
        assert _real_rank(build_datum(case)) == _known_real_rank(case), case.label


def test_derived_constants_match_literature_table():
    for case in ADMISSIBLE_CASES:
        con = abc_constants(case)
        a, b, c = table_abc(case)
        assert (con.a, con.b) == (a, b), case.label
        assert con.c == (c if a < b else 1), case.label


def test_derived_set_matches_literature_table():
    # Every table progression starts in [-37/2, 0], so the window covers
    # each start and more than one period past it.
    points = {Q(k, d) for d in (2, 6) for k in range(-20 * d, 6 * d + 1)}
    for case in ADMISSIBLE_CASES:
        for c in points:
            assert closed_form_reducible(case, c) == in_table_set(case, c), (case.label, c)


def test_half_spacing_is_one_progression():
    # CI and BI(2) have C = 1/2: their two unit progressions in c, from
    # A - B and A - B + 1/2, make the one progression A - B + (1/2)N.
    points = [Q(k, 4) for k in range(-60, 41)]
    for case in (HermitianCase("CI", n=5), HermitianCase("BI", n=2)):
        con = abc_constants(case)
        for c in points:
            want = progression_contains_reference(con.a - con.b, Q(1, 2), c)
            assert closed_form_reducible(case, c) == want, (case.label, c)


@pytest.mark.parametrize(
    "case, rank",
    [
        (HermitianCase("AIII", p=2, q=3), 1),  # r = 1 but A = 6 > B = 4
        (HermitianCase("CI", n=4), 2),  # spacing -1
        (HermitianCase("CI", n=4), 3),  # spacing 1/3
        (HermitianCase("CI", n=4), 5),  # spacing 1/2, b' = -1
    ],
    ids=["rank-one-gap", "negative-spacing", "third-spacing", "negative-b"],
)
def test_malformed_constants_raise(monkeypatch, case, rank):
    import scalarverma.ehw as ehw

    abc_constants.cache_clear()
    monkeypatch.setattr(ehw, "_real_rank", lambda datum: rank)
    with pytest.raises(InvariantError, match="malformed first-reduction constants"):
        abc_constants(case)
    monkeypatch.undo()
    abc_constants.cache_clear()
    assert abc_constants(case).a == table_abc(case)[0]


@pytest.mark.parametrize("shift", [Q(1, 2), Q(1, 3)], ids=["half-integer-b-prime", "third-b"])
def test_constants_off_their_lattice_raise(monkeypatch, shift):
    # EIII has r = 2, A = 8 and B = 11.  Moving gamma's level by 1/2 makes
    # B = 23/2, so 2s = 7 but b' = A - 1 - s = 7/2 is no integer; moving it
    # by 1/3 takes 2B off the integers.
    import scalarverma.ehw as ehw

    case = HermitianCase("EIII")
    level = ehw._gamma_level

    def moved(datum):
        nil = level(datum)
        n, d = shift.numerator, shift.denominator
        return NilradicalLevel(nil.root, d * nil.norm, d * nil.a + n * nil.norm, nil.b, nil.theta_root)

    abc_constants.cache_clear()
    monkeypatch.setattr(ehw, "_gamma_level", moved)
    with pytest.raises(InvariantError, match="malformed first-reduction constants"):
        abc_constants(case)
    monkeypatch.undo()
    abc_constants.cache_clear()
    assert abc_constants(case) == ABCConstants(Q(8), Q(11), Q(3))


def test_abc_verdict_boundaries():
    con = abc_constants(HermitianCase("EIII"))  # a=8, b=11, c=3
    assert abc_verdict(con, Q(7)) == KNOWN_SIMPLE
    assert abc_verdict(con, Q(79, 10)) == KNOWN_SIMPLE
    assert abc_verdict(con, Q(8)) == KNOWN_REDUCIBLE
    assert abc_verdict(con, Q(11)) == KNOWN_REDUCIBLE
    assert abc_verdict(con, Q(9)) == INDETERMINATE       # off the lattice
    assert abc_verdict(con, Q(10)) == INDETERMINATE
    assert abc_verdict(con, Q(12)) == INDETERMINATE      # beyond b
    assert abc_verdict(con, Q(17, 2)) == INDETERMINATE


def test_abc_verdict_half_step_lattice():
    con = abc_constants(HermitianCase("CI", n=4))  # a=5/2, b=4, c=1/2
    hits = [z for z in (Q(5, 2), Q(3), Q(7, 2), Q(4))]
    for z in hits:
        assert abc_verdict(con, z) == KNOWN_REDUCIBLE
    assert abc_verdict(con, Q(11, 4)) == INDETERMINATE
    assert abc_verdict(con, Q(9, 2)) == INDETERMINATE


def test_di2_collapsed_lattice():
    con = abc_constants(HermitianCase("DI", n=2))
    assert abc_lattice(con) == (Q(1),)
    assert abc_verdict(con, Q(1)) == KNOWN_REDUCIBLE
    assert abc_verdict(con, Q(2)) == INDETERMINATE


def test_reducibility_sets_match_literals():
    def check(case, pairs):
        for c, want in pairs:
            assert closed_form_reducible(case, Q(c)) is want, (case.label, c)

    # AIII(2,3): c in 1 - min(p, q) + Z>=0
    check(HermitianCase("AIII", p=2, q=3), [(-2, False), (-1, True), (Q(-1, 2), False), (0, True), (7, True)])
    # CI(3): c in (1-n)/2 + (1/2) Z>=0
    check(HermitianCase("CI", n=3), [(Q(-3, 2), False), (-1, True), (Q(-1, 2), True), (Q(-1, 4), False), (3, True)])
    # BI(3): integers >= 0 union half-integers >= -3/2
    check(
        HermitianCase("BI", n=3),
        [(-2, False), (Q(-3, 2), True), (-1, False), (Q(-1, 2), True), (0, True), (Q(1, 3), False)],
    )
    # DI(4): c in -2 + Z>=0
    check(HermitianCase("DI", n=4), [(-3, False), (-2, True), (Q(-3, 2), False), (5, True)])
    # EIII: c in -3 + Z>=0 ; EVII: c in -8 + Z>=0
    check(HermitianCase("EIII"), [(-3, True), (-4, False)])
    check(HermitianCase("EVII"), [(-8, True), (Q(-17, 2), False)])


def test_diii_start_depends_on_size_parity():
    # stride is always 1; the start drops by 2 only as n passes an odd size
    starts = {2: 0, 3: 0, 4: -2, 5: -2, 6: -4}
    for n, start in starts.items():
        case = HermitianCase("DIII", n=n)
        assert closed_form_reducible(case, Q(start)) and not closed_form_reducible(case, Q(start - 1))
        assert closed_form_reducible(case, Q(start + 1))
        assert not closed_form_reducible(case, Q(2 * start - 1, 2))
    s5 = HermitianCase("DIII", n=5)
    for c, want in [(-3, False), (-2, True), (-1, True), (Q(1, 2), False), (2, True)]:
        assert closed_form_reducible(s5, Q(c)) is want


def _diii_parity_split(n: int, c) -> bool:
    # The DIII set written per parity of n rather than with a floor bracket.
    start = Q(2 - n) if n % 2 == 0 else Q(3 - n)
    return progression_contains_reference(start, Q(1), c)


@pytest.mark.parametrize("n", range(2, 13))
def test_diii_floor_form_equals_parity_split(n):
    case = HermitianCase("DIII", n=n)
    for c in (Q(k, 2) for k in range(-30, 13)):
        assert closed_form_reducible(case, c) == _diii_parity_split(n, c), c


def test_closed_form_reducible_equals_set_membership():
    # EHW's union over j < r of A + jC + N, walked j by j in Fractions,
    # against the two unit progressions closed_form_reducible tests.
    for case in ADMISSIBLE_CASES:
        con = abc_constants(case)
        for k in range(-44, 13):
            c = Q(k, 2)
            assert closed_form_reducible(case, c) == reducible_reference(con, c), (case.label, c)


@pytest.mark.parametrize("bad", [0.1, 2.0, True], ids=["0.1", "2.0", "True"])
def test_inexact_parameters_raise(bad):
    # A float is a binary approximation (0.1 is 3602879701896397/2**55), and
    # a bool is no parameter at all; neither is silently decided.
    case = HermitianCase("AIII", p=2, q=3)
    for decide in (
        lambda: classify_scalar(case, bad),
        lambda: closed_form_reducible(case, bad),
        lambda: abc_verdict(abc_constants(case), bad),
    ):
        with pytest.raises(ValueError, match="exact rational"):
            decide()


_small = st.fractions(min_value=-40, max_value=40, max_denominator=24)
_positive = st.fractions(min_value=Q(1, 24), max_value=12, max_denominator=24)


@st.composite
def _screens(draw):
    """A case and its constants, or random constants with a positive spacing and no case."""
    if draw(st.booleans()):
        case = draw(st.sampled_from(ADMISSIBLE_CASES))
        return abc_constants(case), case
    a, span, spacing = draw(_small), draw(_small), draw(_positive)
    return ABCConstants(a, a + abs(span), spacing), None


@st.composite
def _screen_points(draw):
    """Constants, their case and a point near their lattices, as Fraction, int or str."""
    constants, case = draw(_screens())
    lattices = [(constants.a, constants.c), (constants.b, constants.c)]
    # the closed form's two starts, in z
    lattices += [(constants.a, Q(1)), (constants.a + constants.c, Q(1))]
    start, step = draw(st.sampled_from(lattices))
    # k < 0 lands below the start; an offset lands off the lattice.
    x = start + draw(st.integers(-4, 12)) * step
    x = draw(st.sampled_from([x, x, x + draw(_small) / 7, draw(_small), Q(0)]))
    form = draw(st.sampled_from(["fraction", "str", "int"]))
    if form == "str":
        return constants, case, str(x)
    if form == "int" and x.denominator == 1:
        return constants, case, int(x)
    return constants, case, x


@settings(max_examples=400, deadline=None)
@given(_screen_points())
def test_integer_screen_matches_fraction_reference(point):
    constants, case, z = point
    assert abc_verdict(constants, z) == abc_verdict_reference(constants, z)
    if case is not None:
        c = Fraction(z) - constants.b
        want = reducible_reference(constants, c)
        for form in [c, str(c)] + [int(c)] * (c.denominator == 1):
            assert closed_form_reducible(case, form) == want


def test_screen_boundaries_match_fraction_reference():
    for case in ADMISSIBLE_CASES:
        constants = abc_constants(case)
        starts = [constants.a - constants.b, constants.a - constants.b + constants.c]
        points = [constants.a, constants.b, constants.a - constants.c, constants.b + constants.c]
        points += [s + k for s in starts for k in (-1, 0, 1)]
        for x in points + [x + Q(1, 7) for x in points]:
            for form in (x, str(x)):
                assert abc_verdict(constants, form) == abc_verdict_reference(constants, form)
                assert closed_form_reducible(case, form) == reducible_reference(constants, form)


@st.composite
def _grid_windows(draw):
    """Constants and their case, or random constants and no case (`_screens`),
    a step s/t with s > 1 and t <= 10**4, and a window of m.

    The window straddles A - B and 0, or lies wholly above 0.
    """
    constants, case = draw(_screens())
    t = draw(st.integers(1, 10**4))
    s = draw(st.integers(2, 20).filter(lambda s: math.gcd(s, t) == 1))
    step = Q(s, t)
    bound = math.ceil((constants.a - constants.b) / step)
    if draw(st.booleans()):
        ms = range(bound - draw(st.integers(1, 40)), draw(st.integers(1, 40)) + 1)
    else:
        lo = draw(st.integers(1, 10**4))
        ms = range(lo, lo + draw(st.integers(1, 300)))
    return constants, case, step, ms, draw(st.lists(st.sampled_from(ms), max_size=20))


@settings(max_examples=150, deadline=None)
@given(_grid_windows())
def test_grid_progressions_match_their_definitions(grid):
    constants, case, step, ms, sample = grid
    # the closed form needs a case; the screen reads its constants alone
    closed = [] if case is None else closed_form_grid(case, step, ms)
    simple, reducible = screen_grid(constants, step, ms)
    for points in closed + [simple, reducible]:
        assert not points or (ms.start <= points.start and points[-1] < ms.stop), points
    # Every point the definitions name in the window: c = s + k for the
    # closed form, z = A + iC <= B for the screen; then the progressions'
    # own points, the screen's bounds and a random sample.
    lo, hi = ms.start * step, (ms.stop - 1) * step
    named = []
    if case is not None:
        for start in (constants.a - constants.b, constants.a - constants.b + constants.c):
            named += [(start + k) / step for k in range(max(0, math.ceil(lo - start)), math.floor(hi - start) + 1)]
    z, b = constants.a, constants.b
    while z <= b:
        named.append((z - b) / step)
        z += constants.c
    points = {m.numerator for m in named if m.denominator == 1 and m.numerator in ms}
    points |= {m for p in closed + [reducible] for m in p}
    points |= {m for m in (simple.stop - 1, simple.stop, 0, 1, ms.start, ms.stop - 1) if m in ms}
    points |= set(sample)
    label = constants if case is None else case.label
    for m in points:
        c = m * step
        z = c + constants.b
        want = abc_verdict_reference(constants, z)
        got = KNOWN_SIMPLE if m in simple else KNOWN_REDUCIBLE if m in reducible else INDETERMINATE
        assert got == want, (label, step, m)
        # the one-point reads, on the grid of step 1/den
        assert abc_verdict(constants, z) == want, (label, z)
        if case is not None:
            reference = closed_form_reference(constants, c)
            assert any(m in p for p in closed) == reference, (label, step, m)
            assert closed_form_reducible(case, c) == reference, (label, c)


def test_progression_summary_bi3():
    case = HermitianCase("BI", n=3)
    scan = _scan(case, Q(-4), Q(8), Q(1, 2))
    summary = progression_summary(case, scan)
    assert summary.finite_part == (Q(-3, 2),)
    assert summary.tail_start == Q(-1, 2) and summary.tail_step == Q(1, 2)


def test_progression_summary_ci2():
    case = HermitianCase("CI", n=2)
    scan = _scan(case, Q(-3), Q(6), Q(1, 2))
    summary = progression_summary(case, scan)
    assert summary.finite_part == ()
    assert summary.tail_start == Q(-1, 2) and summary.tail_step == Q(1, 2)


def test_progression_summary_eiii():
    case = HermitianCase("EIII")
    scan = _scan(case, Q(-5), Q(3), Q(1))
    summary = progression_summary(case, scan)
    assert summary.finite_part == ()
    assert summary.tail_start == Q(-3) and summary.tail_step == Q(1)


@pytest.mark.parametrize("case,lo,hi,step", [
    (HermitianCase("BI", n=3), Q(-4), Q(8), Q(1, 2)),
    (HermitianCase("CI", n=2), Q(-3), Q(6), Q(1, 2)),
    (HermitianCase("EIII"), Q(-5), Q(3), Q(1)),
], ids=["BI(3)", "CI(2)", "EIII"])
def test_progression_summary_counts_a_repeated_point_once(case, lo, hi, step):
    scan = _scan(case, lo, hi, step)
    clean = progression_summary(case, scan)
    assert clean.tail_step > 0
    for repeated in (scan + [scan[-1]], scan + scan[::-1]):
        assert progression_summary(case, repeated) == clean


def test_progression_summary_window_guards():
    # Each refusal by its own message.
    case = HermitianCase("CI", n=2)
    for scan, message in [
        ([], "CI(2): empty scan"),
        # the window stops at c = 0, z = B, inside the decided strip: refuse
        # to extrapolate, however many reducible points it holds
        (_scan(case, Q(-3), Q(0), Q(1, 2)), "CI(2): scan must pass z = 2"),
        ([(Q(-1, 2), "Reducible")], "CI(2): scan must pass z = 2"),
        # past c = 0, with too few reducible points
        ([(Q(-1, 2), "Reducible"), (Q(1), "Simple")], "CI(2): need at least two reducible points"),
    ]:
        with pytest.raises(InsufficientWindowError, match=re.escape(message)):
            progression_summary(case, scan)


def _scan(case, lo, hi, step):
    out = []
    c = lo
    while c <= hi:
        out.append((c, classify_scalar(case, c).verdict))
        c += step
    return out
