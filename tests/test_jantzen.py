"""The signed chamber-sum oracle for scalar highest weights."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import ADMISSIBLE_CASES, SWEEP_CASES, verdict_support
from golden_tables import sign_pattern_root
from reference import simplicity_oracle, theta_pairing
from scalarverma import HermitianCase, abc_constants, build_datum, classify_scalar, closed_form_reducible
from scalarverma.jantzen import (
    REDUCIBLE,
    ROUTE_EMPTY_SUPPORT,
    ROUTE_SUM_CANCELS,
    ROUTE_SUM_SURVIVES,
    SIMPLE,
    jantzen_support,
)
from scalarverma.ratvec import add, pairing, reflect, scale, weight
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


def test_verdict_constants():
    assert SIMPLE == "Simple" and REDUCIBLE == "Reducible"
    assert {ROUTE_EMPTY_SUPPORT, ROUTE_SUM_CANCELS, ROUTE_SUM_SURVIVES} == {
        "empty_support", "sum_cancels", "sum_survives"
    }
