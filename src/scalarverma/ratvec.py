"""Exact rational scalars and coordinate weight vectors.

Weights are plain tuples of `fractions.Fraction` in the ambient coordinates
of a case realization.  Everything is exact: no floats anywhere, and every
operation returns a fresh immutable value, so weights can be shared freely
between threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

Weight = tuple[Fraction, ...]


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational.

    Accepts ASCII digits, and an ASCII hyphen or a U+2212 minus sign.
    Anything else (floats, exponents, underscores, non-ASCII digits,
    whitespace inside the number) is rejected.
    """
    s = text.strip().replace("−", "-")
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    # ASCII digits only: str.isdigit() alone also takes every Unicode digit
    if not (s.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"not a rational: {text!r} (expected p or p/q)")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def rational(x) -> Fraction:
    """x as a Fraction.  A float or a bool is no exact rational: ValueError."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"expected an exact rational, got {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(x)


def weight(coords: Iterable) -> Weight:
    """Build a weight from an iterable of ints, rationals, or "p/q" strings.

    A float or a bool coordinate raises ValueError, as in `rational`.
    """
    return tuple(parse_rational(c) if isinstance(c, str) else rational(c) for c in coords)


def add(mu: Weight, nu: Weight) -> Weight:
    _check_dims(mu, nu)
    return tuple(a + b for a, b in zip(mu, nu))


def sub(mu: Weight, nu: Weight) -> Weight:
    _check_dims(mu, nu)
    return tuple(a - b for a, b in zip(mu, nu))


def scale(c, mu: Weight) -> Weight:
    """c * mu for an exact rational c; a float or a bool raises ValueError."""
    k = rational(c)
    return tuple(k * a for a in mu)


def inner(mu: Weight, nu: Weight) -> Fraction:
    """Euclidean inner product in the ambient coordinates."""
    _check_dims(mu, nu)
    return sum((a * b for a, b in zip(mu, nu)), Fraction(0))


def dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Inner product of two integer vectors of equal length."""
    return sum(map(mul, u, v))


def pairing(mu: Weight, nu: Weight) -> Fraction:
    """Normalized product 2*inner(mu, nu) / inner(nu, nu); requires nu != 0."""
    nn = inner(nu, nu)
    if nn == 0:
        raise ValueError("pairing against the zero weight")
    return 2 * inner(mu, nu) / nn


def reflect(mu: Weight, alpha: Weight) -> Weight:
    """Orthogonal reflection of mu in the hyperplane normal to alpha.

    Involutive and inner-product preserving; requires alpha != 0.
    """
    k = pairing(mu, alpha)
    return tuple(m - k * a for m, a in zip(mu, alpha))


def is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def congruence(slope: int, value: int, modulus: int, low: int) -> tuple[int, int] | None:
    """The integers m >= low with slope * m = value modulo modulus, as (first, period).

    slope and modulus are positive.  The solutions, if any, are one residue
    class modulo modulus / gcd(slope, modulus); None when there are none.
    """
    g = math.gcd(slope, modulus)
    if value % g:
        return None
    period = modulus // g
    residue = value // g * pow(slope // g, -1, period) % period
    return low + (residue - low) % period, period


def _check_dims(mu: Weight, nu: Weight) -> None:
    if len(mu) != len(nu):
        raise ValueError(f"dimension mismatch: {len(mu)} vs {len(nu)}")
