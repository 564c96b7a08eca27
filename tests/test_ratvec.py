"""Exact vector arithmetic: parsing, inner products, reflections."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scalarverma import HermitianCase, build_datum
from scalarverma.ratvec import (
    add,
    format_rational,
    inner,
    is_integer,
    pairing,
    parse_rational,
    reflect,
    scale,
    sub,
    weight,
)
from scalarverma.rootdata import scalar_parameter_weight

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
vectors3 = st.tuples(rationals, rationals, rationals)
nonzero_vectors3 = vectors3.filter(lambda v: any(v))


def test_parse_rational_basic():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7/2") == Fraction(7, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


def test_parse_rational_unicode_minus():
    assert parse_rational("−3/4") == Fraction(-3, 4)
    assert parse_rational("−5") == Fraction(-5)


@pytest.mark.parametrize(
    "bad", ["", "1.5", "3/0", "a", "1/2/3", "--2", "1e3", "1_0", "\u0661/\u0662", "\uff13"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# The regular expression parse_rational ran on, kept as its reference.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _reference_parse_rational(text: str):
    """parse_rational as it ran on _RATIONAL_RE: its value, or its ValueError's message."""
    s = text.strip().replace("−", "-")
    if not _RATIONAL_RE.fullmatch(s):
        return f"not a rational: {text!r} (expected p or p/q)"
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        return f"zero denominator: {text!r}"
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789+-−/ \t\n\x1c\u00a0x._\u0663\u00b3\uff13")) | st.text())
@example("\x1c7/2")
@example("+-3")
@example("3/-4")
def test_parse_rational_keeps_its_ascii_contract(text):
    try:
        read = parse_rational(text)
    except ValueError as exc:
        read = str(exc)
    assert read == _reference_parse_rational(text)


@given(rationals)
def test_parse_format_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_rational_integral():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


def test_weight():
    w = weight([1, Fraction(1, 2), -2])
    assert w == (Fraction(1), Fraction(1, 2), Fraction(-2))


@pytest.mark.parametrize("bad", [0.1, 0.5, True], ids=["0.1", "0.5", "True"])
def test_inexact_scalars_raise(bad):
    # 0.1 would become 3602879701896397/2**55; 0.5 is exact in binary but
    # is still a float, and a bool is no scalar at all.
    datum = build_datum(HermitianCase("AIII", p=2, q=3))
    for build in (
        lambda: weight([Fraction(1, 2), bad]),
        lambda: scale(bad, weight([1, 2])),
        lambda: scalar_parameter_weight(datum, bad),
    ):
        with pytest.raises(ValueError, match="exact rational"):
            build()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(weight([1, 2]), weight([1, 2, 3]))
    with pytest.raises(ValueError):
        add(weight([1]), weight([1, 2]))


def test_pairing_zero_root():
    with pytest.raises(ValueError):
        pairing(weight([1, 2]), weight([0, 0]))


def test_pairing_known_values():
    # long and short roots of B2
    assert pairing(weight([1, 0]), weight([1, -1])) == 1
    assert pairing(weight([1, 0]), weight([0, 1])) == 0
    assert pairing(weight([1, 1]), weight([0, 1])) == 2


def test_is_integer():
    assert is_integer(Fraction(6, 3))
    assert not is_integer(Fraction(1, 2))


@given(vectors3, vectors3)
def test_inner_symmetric(u, v):
    assert inner(u, v) == inner(v, u)


@given(vectors3, vectors3, vectors3)
def test_inner_bilinear(u, v, w):
    assert inner(add(u, v), w) == inner(u, w) + inner(v, w)
    assert inner(sub(u, v), w) == inner(u, w) - inner(v, w)


@given(rationals, vectors3, vectors3)
def test_inner_scaling(t, u, v):
    assert inner(scale(t, u), v) == t * inner(u, v)


@given(vectors3, nonzero_vectors3)
def test_reflect_involution(v, alpha):
    assert reflect(reflect(v, alpha), alpha) == v


@given(vectors3, vectors3, nonzero_vectors3)
def test_reflect_isometry(u, v, alpha):
    assert inner(reflect(u, alpha), reflect(v, alpha)) == inner(u, v)


@given(nonzero_vectors3)
def test_reflect_negates_root(alpha):
    assert reflect(alpha, alpha) == scale(Fraction(-1), alpha)


@given(vectors3, nonzero_vectors3)
def test_reflect_fixes_orthogonal_complement(v, alpha):
    # project v onto the wall, then the reflection must fix it
    t = Fraction(inner(v, alpha), inner(alpha, alpha))
    fixed = sub(v, scale(t, alpha))
    assert reflect(fixed, alpha) == fixed


@given(rationals, nonzero_vectors3)
def test_pairing_scale_invariant_in_weight_slot(t, alpha):
    v = (Fraction(3), Fraction(-1), Fraction(2))
    assert pairing(scale(t, v), alpha) == t * pairing(v, alpha)
