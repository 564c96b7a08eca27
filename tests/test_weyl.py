"""Chamber normalization: wall detection, canonical forms, parity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SWEEP_CASES,
    apply_word,
    is_levi_regular_integral,
    random_levi_word,
    random_weight,
    replaced,
    shadow_normalize,
)
from reference import theta_pairing
from scalarverma import HermitianCase, InvariantError, build_datum
from scalarverma.ratvec import inner, pairing, reflect, weight
from scalarverma.weyl import normalize

CASE_IDS = [c.label for c in SWEEP_CASES]


def test_dominant_weight_is_its_own_form():
    datum = build_datum(HermitianCase("AIII", p=2, q=3))
    mu = weight([9, 7, 2, 1, -4])
    form = normalize(datum, mu)
    assert form.is_regular
    assert form.rep == mu and form.parity == 0 and form.steps == 0
    assert form.sign == 1


def test_wall_weight_is_singular():
    datum = build_datum(HermitianCase("AIII", p=2, q=3))
    # equal entries inside one block lie on a Levi wall
    form = normalize(datum, weight([3, 3, 2, 1, 0]))
    assert not form.is_regular
    assert form.rep is None and form.parity is None
    with pytest.raises(ValueError):
        form.sign
    # equal entries across the block split do not
    assert normalize(datum, weight([3, 1, 3, 2, 0])).is_regular


def test_single_swap_has_odd_parity():
    datum = build_datum(HermitianCase("AIII", p=3, q=3))
    mu = weight([3, 1, 2, 6, 5, 4])
    form = normalize(datum, mu)
    assert form.is_regular
    assert form.rep == weight([3, 2, 1, 6, 5, 4])
    assert form.parity == 1 and form.steps == 1
    assert form.sign == -1


def test_bi_sign_flip_parity():
    # Levi of BI(n) is so(2n-1) acting on the last n-1 coordinates
    datum = build_datum(HermitianCase("BI", n=3))
    form = normalize(datum, weight([5, 1, -2]))
    assert form.is_regular
    assert form.rep == weight([5, 2, 1])
    assert form.parity == (form.steps % 2)
    assert form.rep[1] > form.rep[2] > 0


def test_normalized_rep_is_dominant():
    rng = random.Random(20240817)
    for case in SWEEP_CASES:
        datum = build_datum(case)
        for _ in range(40):
            mu = random_weight(rng, datum.ambient_dim)
            form = normalize(datum, mu)
            if form.is_regular:
                for alpha in datum.levi_simples:
                    assert inner(form.rep, alpha) > 0


def test_empty_levi_everything_regular():
    datum = build_datum(HermitianCase("DI", n=2))
    mu = weight([Fraction(1, 3), Fraction(1, 3)])
    form = normalize(datum, mu)
    assert form.is_regular and form.steps == 0 and form.rep == mu


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_orbit_invariance_against_shadow(case):
    datum = build_datum(case)
    rng = random.Random(hash(case.label) & 0xFFFF)
    for _ in range(25):
        mu = random_weight(rng, datum.ambient_dim)
        form = normalize(datum, mu)
        regular, rep, parity = shadow_normalize(datum, mu, rng)
        assert form.is_regular == regular
        if regular:
            assert form.rep == rep and form.parity == parity


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_reflected_inputs_share_rep_and_flip_parity(case):
    datum = build_datum(case)
    rng = random.Random(len(case.label) * 7919 + 11)
    for _ in range(25):
        mu = random_weight(rng, datum.ambient_dim)
        word = random_levi_word(datum, rng)
        form0 = normalize(datum, mu)
        form1 = normalize(datum, apply_word(mu, word))
        assert form0.is_regular == form1.is_regular
        if form0.is_regular:
            assert form0.rep == form1.rep
            assert form1.parity == (form0.parity + len(word)) % 2


coords6 = st.tuples(*[st.integers(min_value=-30, max_value=30) for _ in range(6)])


@settings(max_examples=100, deadline=None)
@given(coords6)
def test_hypothesis_orbit_invariance_aiii(coords):
    datum = build_datum(HermitianCase("AIII", p=3, q=3))
    mu = weight(list(coords))
    form = normalize(datum, mu)
    rng = random.Random(sum(abs(c) for c in coords))
    regular, rep, parity = shadow_normalize(datum, mu, rng)
    assert form.is_regular == regular
    if regular:
        assert form.rep == rep and form.parity == parity
        assert sorted(mu[:3], reverse=True) == list(form.rep[:3])
        assert sorted(mu[3:], reverse=True) == list(form.rep[3:])


def test_steps_bounded_by_positive_levi_roots():
    datum = build_datum(HermitianCase("EVII"))
    rng = random.Random(5)
    for _ in range(50):
        mu = random_weight(rng, 8)
        form = normalize(datum, mu)
        assert form.steps <= len(datum.levi_positive)


def test_corrupted_datum_trips_invariant():
    # drop the positive Levi root carrying the wall, so the scan misses it
    datum = build_datum(HermitianCase("AIII", p=2, q=2))
    mu = weight([1, 1, 5, 3])
    kept = tuple(a for a in datum.levi_positive if inner(mu, a) != 0)
    assert len(kept) == len(datum.levi_positive) - 1
    crippled = replaced(datum, levi_positive=kept)
    with pytest.raises(InvariantError):
        normalize(crippled, mu)


def test_is_levi_regular_integral():
    datum = build_datum(HermitianCase("AIII", p=2, q=3))
    assert is_levi_regular_integral(datum, weight([2, 1, 3, 1, 0]))
    assert not is_levi_regular_integral(datum, weight([2, 2, 3, 1, 0]))
    assert not is_levi_regular_integral(datum, weight([Fraction(1, 2), 1, 3, 1, 0]))


def test_theta_pairing_is_orbit_invariant():
    rng = random.Random(99)
    for case in SWEEP_CASES:
        datum = build_datum(case)
        for _ in range(20):
            mu = random_weight(rng, datum.ambient_dim)
            word = random_levi_word(datum, rng)
            assert theta_pairing(datum, mu) == theta_pairing(datum, apply_word(mu, word))


def test_theta_pairing_matches_zeta_inner_product():
    # theta_u coincides with zeta in every one of the seven cases
    for case in SWEEP_CASES:
        datum = build_datum(case)
        assert datum.theta_u == datum.zeta
    datum = build_datum(HermitianCase("CI", n=3))
    assert theta_pairing(datum, weight([1, 2, 3])) == inner(weight([1, 2, 3]), datum.zeta)
