"""The signed chamber-sum oracle for scalar highest weights."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import ADMISSIBLE_CASES, SWEEP_CASES, verdict_support
from golden_tables import sign_pattern_root
from reference import simplicity_oracle, theta_pairing
from scalarverma import HermitianCase, abc_constants, build_datum, classify_scalar, closed_form_reducible
from scalarverma import jantzen
from scalarverma.jantzen import (
    REDUCIBLE,
    ROUTE_EMPTY_SUPPORT,
    ROUTE_SUM_CANCELS,
    ROUTE_SUM_SURVIVES,
    SIMPLE,
    _classify_point,
    jantzen_support,
)
from scalarverma.ratvec import add, inner, pairing, reflect, scale, weight
from scalarverma.rootdata import scalar_parameter_weight


def oracle(case: HermitianCase, c) -> "SimplicityVerdict":
    return classify_scalar(case, Fraction(c))


def test_support_filter_is_positive_integer_levels():
    datum = build_datum(HermitianCase("AIII", p=2, q=3))
    lam = scalar_parameter_weight(datum, Fraction(-1))
    support = jantzen_support(datum, lam)
    mu = add(lam, datum.rho)
    assert support
    for beta in support:
        k = pairing(mu, beta)
        assert k.denominator == 1 and k > 0
    # non-integral parameter ships an empty support
    lam = scalar_parameter_weight(datum, Fraction(1, 7))
    assert jantzen_support(datum, lam) == ()


def test_oracle_requires_scalar_weight():
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    with pytest.raises(ValueError):
        simplicity_oracle(datum, weight([1, 0, 0, 0]))


def test_classify_scalar_accepts_case_or_datum():
    case = HermitianCase("CI", n=2)
    datum = build_datum(case)
    a = classify_scalar(case, Fraction(0))
    b = classify_scalar(datum, Fraction(0))
    assert a == b


def test_empty_support_route():
    v = oracle(HermitianCase("CI", n=3), Fraction(1, 7))
    assert v.verdict == SIMPLE and v.route == ROUTE_EMPTY_SUPPORT
    assert v.terms == () and v.certificate == () and v.witness is None


def test_support_is_empty_exactly_at_the_simple_point():
    datum = build_datum(HermitianCase("CI", n=3))
    lam = scalar_parameter_weight(datum, Fraction(1, 7))
    assert not jantzen_support(datum, lam)
    lam = scalar_parameter_weight(datum, Fraction(-1, 2))
    assert jantzen_support(datum, lam)


def test_aiii23_reducible_point():
    v = oracle(HermitianCase("AIII", p=2, q=3), -1)
    assert v.verdict == REDUCIBLE and v.route == ROUTE_SUM_SURVIVES
    assert len(v.terms) == 5
    assert len(v.surviving) == 2
    assert v.witness is not None and v.witness in verdict_support(v)
    signs = sorted(g.net_sign for g in v.surviving)
    assert signs == [-1, 1]


def test_aiii23_simple_point_all_singular():
    v = oracle(HermitianCase("AIII", p=2, q=3), -2)
    assert v.verdict == SIMPLE and v.route == ROUTE_SUM_CANCELS
    assert len(v.terms) == 3
    assert all(not t.chamber.is_regular for t in v.terms)
    assert v.certificate == () and v.witness is None


def test_bi3_cancelling_pair():
    v = oracle(HermitianCase("BI", n=3), -1)
    assert v.verdict == SIMPLE and v.route == ROUTE_SUM_CANCELS
    assert len(v.terms) == 4
    regular = [t for t in v.terms if t.chamber.is_regular]
    assert len(regular) == 2
    assert len(v.certificate) == 1 and v.certificate[0].net_sign == 0
    parities = sorted(t.chamber.parity for t in regular)
    assert parities == [0, 1]


def test_di4_witness():
    v = oracle(HermitianCase("DI", n=4), -1)
    assert v.verdict == REDUCIBLE
    assert v.witness == weight([1, 1, 0, 0])


def test_term_images_are_reflections():
    v = oracle(HermitianCase("DIII", n=4), 0)
    datum = build_datum(HermitianCase("DIII", n=4))
    mu = add(scalar_parameter_weight(datum, Fraction(0)), datum.rho)
    for t in v.terms:
        assert t.image == reflect(mu, t.beta)
        assert t.level == pairing(mu, t.beta)


def test_members_of_one_class_share_rep_and_theta():
    for case, c in [
        (HermitianCase("AIII", p=3, q=3), Fraction(-2)),
        (HermitianCase("CI", n=4), Fraction(-1)),
        (HermitianCase("DIII", n=5), Fraction(-3, 2)),
        (HermitianCase("EIII"), Fraction(-2)),
    ]:
        datum = build_datum(case)
        v = classify_scalar(datum, c)
        for g in v.certificate:
            thetas = {theta_pairing(datum, m.image) for m in g.members}
            assert len(thetas) == 1
            for m in g.members:
                assert m.chamber.rep == g.rep
            assert g.net_sign == sum(m.chamber.sign for m in g.members)


def test_certificate_reps_are_distinct_and_sorted():
    v = oracle(HermitianCase("EIII"), -2)
    reps = [g.rep for g in v.certificate]
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)


def test_eiii_new_reducible_points():
    # the two parameters settled by the chamber sum rather than the screen
    for c, n_support in ((Fraction(-2), 14), (Fraction(-1), 15)):
        v = oracle(HermitianCase("EIII"), c)
        assert v.verdict == REDUCIBLE and v.route == ROUTE_SUM_SURVIVES
        assert len(v.terms) == n_support
        assert len(v.surviving) == 5


def test_evii_z10_survivor():
    # the unique surviving class at this parameter is the ---++ term
    v = oracle(HermitianCase("EVII"), -7)
    assert v.verdict == REDUCIBLE and v.route == ROUTE_SUM_SURVIVES
    assert len(v.terms) == 17
    assert len(v.surviving) == 1
    survivors = v.surviving[0].members
    assert len(survivors) == 1
    assert survivors[0].beta == sign_pattern_root("---++", 1)
    assert survivors[0].image == weight([3, 4, 5, 0, 1, -5, -2, 2])
    assert abs(v.surviving[0].net_sign) == 1


def test_evii_named_witnesses():
    evii = HermitianCase("EVII")
    # z = 11
    v = oracle(evii, -6)
    assert v.verdict == REDUCIBLE
    beta0 = sign_pattern_root("+-+++", 1)
    assert any(beta0 in {m.beta for m in g.members} for g in v.surviving)
    # z in {12, 14, 15, 16}: the short nilradical-edge root survives
    edge = weight([0, 0, 0, 0, 0, 0, -1, 1])
    for c in (-5, -3, -2, -1):
        v = oracle(evii, c)
        assert v.verdict == REDUCIBLE
        assert any(edge in {m.beta for m in g.members} for g in v.surviving)


def test_witness_lies_in_first_surviving_class():
    v = oracle(HermitianCase("AIII", p=2, q=3), -1)
    assert v.witness in {m.beta for m in v.surviving[0].members}


def test_random_agreement_with_closed_form():
    rng = random.Random(314159)
    for _ in range(120):
        case = SWEEP_CASES[rng.randrange(len(SWEEP_CASES))]
        c = Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 6]))
        v = classify_scalar(case, c)
        assert (v.verdict == REDUCIBLE) == closed_form_reducible(case, c)


def test_oracle_matches_closed_form_at_every_admissible_rank():
    # Every integer and half-integer c from two below the first reduction
    # point, c = A - B, up to 2: the reducible starts and the walk past them.
    points = 0
    for case in ADMISSIBLE_CASES:
        con = abc_constants(case)
        datum = build_datum(case)
        for m in range(int(2 * (con.a - con.b)) - 4, 5):
            c = Fraction(m, 2)
            reducible = classify_scalar(datum, c).verdict == REDUCIBLE
            assert reducible == closed_form_reducible(case, c), (case.label, c)
            points += 1
    assert points == 4701


# Jantzen's sum formula (Jantzen 1977) says more than the verdict reads:
# the sum of the characters of the filtration's layers is a nonnegative
# combination of characters.  So a surviving class at the least surviving
# level k, and one whose representative lies below no other surviving
# representative, must have net sign +1.  Both are checked on the integer
# certificate, whose representatives are numerators over one denominator.
LEAST_LEVEL_POINTS = [Fraction(m, 2) for m in range(-40, 21)]
MAXIMAL_POINTS = [Fraction(m, 2) for m in range(-30, 17)]
# A sign flipped everywhere changes no verdict, and both checks see it here.
FLIP_CASES = [HermitianCase("CI", n=4), HermitianCase("BI", n=3), HermitianCase("EIII")]


def surviving_classes(view, c):
    """The surviving classes of c * zeta's integer certificate as (level,
    net sign, representative's numerators), and the numerators' denominator.
    Every member of a class has the class's level."""
    *_, classes, _, den = _classify_point(view, c.numerator, c.denominator)
    surviving = []
    for rep, net, members in classes:
        levels = {k for _, k, _, _ in members}
        assert len(levels) == 1, (c, levels)
        if net:
            surviving.append((levels.pop(), net, rep))
    return surviving, den


def simple_coefficients(simples):
    """Integer rows L and a denominator E: a vector v in the span of the
    simple roots is the sum of dot(L_i, v) / E times simples[i].

    L / E is the inverse Gram matrix times the simple roots, by Gauss-Jordan
    without pivoting, as the Gram matrix is positive definite.
    """
    r = len(simples)
    rows = [[inner(a, b) for b in simples] + [Fraction(i == t) for t in range(r)] for i, a in enumerate(simples)]
    for i in range(r):
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for t in range(r):
            if t != i:
                rows[t] = [x - rows[t][i] * y for x, y in zip(rows[t], rows[i])]
    dual = [[sum(row[r + t] * a[x] for t, a in enumerate(simples)) for x in range(len(simples[0]))] for row in rows]
    common = math.lcm(*[x.denominator for v in dual for x in v])
    return [[int(x * common) for x in v] for v in dual], common


def assert_least_level_positive(case, points) -> int:
    """Checks every point's classes at the least surviving level; returns their number."""
    view = build_datum(case).integer_view
    checked = 0
    for c in points:
        surviving, _ = surviving_classes(view, c)
        if surviving:
            least = min(level for level, _, _ in surviving)
            nets = [net for level, net, _ in surviving if level == least]
            assert nets == [1] * len(nets), (case.label, c)
            checked += len(nets)
    return checked


def assert_maximal_positive(case, points) -> int:
    """Checks every point's maximal surviving classes; returns their number."""
    # rep_a lies below rep_b when rep_b - rep_a is a sum of positive roots:
    # its simple-root coefficients are nonnegative integers.  All the
    # representatives of one point differ from c * zeta + rho by root-lattice
    # vectors, so a difference lies in the span of the simple roots.
    datum = build_datum(case)
    rows, common = simple_coefficients(datum.simple_roots)
    view = datum.integer_view
    checked = 0
    for c in points:
        surviving, den = surviving_classes(view, c)
        unit = common * den
        coefficients = [[sum(map(int.__mul__, row, rep)) for row in rows] for _, _, rep in surviving]
        for (_, net, _), low in zip(surviving, coefficients):
            below = sum(
                all(y >= x and (y - x) % unit == 0 for x, y in zip(low, high)) for high in coefficients
            )
            # a class lies below itself
            if below == 1:
                assert net == 1, (case.label, c)
                checked += 1
    return checked


def test_least_surviving_level_has_positive_classes():
    checked = sum(assert_least_level_positive(case, LEAST_LEVEL_POINTS) for case in ADMISSIBLE_CASES)
    assert checked == 4588


def test_maximal_surviving_classes_are_positive():
    # the classical cases of ambient dimension at most 8, and EIII and EVII
    cases = [
        case for case in ADMISSIBLE_CASES if case.tag in ("EIII", "EVII") or build_datum(case).ambient_dim <= 8
    ]
    assert len(cases) == 58
    assert sum(assert_maximal_positive(case, MAXIMAL_POINTS) for case in cases) == 771


def test_positivity_sees_a_sign_flipped_everywhere(monkeypatch):
    # One more letter in every word flips the sign of every term and class,
    # and changes no verdict; both positivity checks fail on it.
    fetch = jantzen._line_chamber

    def line_chamber(view, j, k):
        entry = fetch(view, j, k)
        return entry if entry is None else (*entry[:4], entry[4] + (0,))

    verdicts = {case: [oracle(case, c).verdict for c in LEAST_LEVEL_POINTS] for case in FLIP_CASES}
    monkeypatch.setattr(jantzen, "_line_chamber", line_chamber)
    for case in FLIP_CASES:
        assert [oracle(case, c).verdict for c in LEAST_LEVEL_POINTS] == verdicts[case], case.label
        with pytest.raises(AssertionError):
            assert_least_level_positive(case, LEAST_LEVEL_POINTS)
        with pytest.raises(AssertionError):
            assert_maximal_positive(case, MAXIMAL_POINTS)


def test_verdict_constants():
    assert SIMPLE == "Simple" and REDUCIBLE == "Reducible"
    assert {ROUTE_EMPTY_SUPPORT, ROUTE_SUM_CANCELS, ROUTE_SUM_SURVIVES} == {
        "empty_support", "sum_cancels", "sum_survives"
    }
