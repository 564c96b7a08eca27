"""Special lines, first-reduction constants, and closed-form parameter sets.

Every scalar parameter c sits on the line lam = lam0 + z * zeta through a
base point lam0 orthogonal (shifted by rho) to the highest nilradical
root; z is an affine function of c with slope one.  Three constants
A <= B (with spacing C > 0 dividing B - A) govern the first reduction
point: below A the module is known simple, on the lattice A + iC up to B
it is known reducible, and elsewhere the screen is silent.  Each case also
carries a closed-form description of its full reducible parameter set as a
finite union of arithmetic progressions in c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientWindowError, InvariantError
from .ratvec import Weight, add, format_rational, is_integer, pairing, scale, sub
from .rootdata import HermitianCase, ParabolicRootDatum, build_datum

KNOWN_SIMPLE = "known_simple"
KNOWN_REDUCIBLE = "known_reducible"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SpecialLine:
    """Base point and line coordinate of one parameter."""

    lambda0: Weight
    z: Fraction


@dataclass(frozen=True)
class ABCConstants:
    """First-reduction constants of one case instance."""

    a: Fraction
    b: Fraction
    c: Fraction


@dataclass(frozen=True)
class Progression:
    """The set {start + k * step : k = 0, 1, 2, ...}."""

    start: Fraction
    step: Fraction

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"progression step must be positive, got {self.step}")

    def contains(self, x: Fraction) -> bool:
        # (x - start) / step = num / den with den > 0, so it is a
        # nonnegative integer exactly when num >= 0 and den divides num.
        s, t = self.start, self.step
        num = (x.numerator * s.denominator - s.numerator * x.denominator) * t.denominator
        return num >= 0 and num % (x.denominator * s.denominator * t.numerator) == 0


@dataclass(frozen=True)
class ReducibilitySet:
    """Closed-form reducible c-set of a case: a union of progressions."""

    case: HermitianCase
    parts: tuple[Progression, ...]

    def contains(self, c) -> bool:
        x = c if isinstance(c, Fraction) else Fraction(c)
        return any(p.contains(x) for p in self.parts)


@dataclass(frozen=True)
class ProgressionSummary:
    """A scanned reducible set split into exceptions plus one tail."""

    finite_part: tuple[Fraction, ...]
    tail_start: Fraction
    tail_step: Fraction


def special_line(datum: ParabolicRootDatum, lam: Weight) -> SpecialLine:
    """Split lam into its base point and line coordinate."""
    z = pairing(add(lam, datum.rho), datum.gamma)
    return SpecialLine(sub(lam, scale(z, datum.zeta)), z)


def line_offset(case: HermitianCase) -> Fraction:
    """The constant in z = c + offset for scalar parameters c."""
    datum = build_datum(case)
    return pairing(datum.rho, datum.gamma)


def abc_constants(case: HermitianCase) -> ABCConstants:
    tag, p, q, n = case.tag, case.p, case.q, case.n
    if tag == "AIII":
        a, b, c = Fraction(max(p, q)), Fraction(p + q - 1), Fraction(1)
    elif tag == "CI":
        a, b, c = Fraction(n + 1, 2), Fraction(n), Fraction(1, 2)
    elif tag == "BI":
        a, b, c = Fraction(2 * n - 1, 2), Fraction(2 * n - 2), Fraction(2 * n - 3, 2)
    elif tag == "DI":
        # At n = 2 the general spacing formula degenerates to zero; with
        # a = b the lattice is the single point a and any positive spacing
        # serves.
        a, b = Fraction(n - 1), Fraction(2 * n - 3)
        c = Fraction(n - 2) if n > 2 else Fraction(1)
    elif tag == "DIII":
        a = Fraction(n - 1) if n % 2 == 0 else Fraction(n)
        b, c = Fraction(2 * n - 3), Fraction(2)
    elif tag == "EIII":
        a, b, c = Fraction(8), Fraction(11), Fraction(3)
    else:
        a, b, c = Fraction(9), Fraction(17), Fraction(4)

    if not (c > 0 and a <= b and is_integer((b - a) / c)):
        raise InvariantError(f"{case.label}: malformed first-reduction constants")
    return ABCConstants(a, b, c)


def abc_verdict(constants: ABCConstants, z) -> str:
    """What the first-reduction constants alone say about line coordinate z."""
    x = z if isinstance(z, Fraction) else Fraction(z)
    a, b, c = constants.a, constants.b, constants.c
    # z - a = gap / (x.denominator * a.denominator), in integers.
    gap = x.numerator * a.denominator - a.numerator * x.denominator
    if gap < 0:
        return KNOWN_SIMPLE
    if (
        x.numerator * b.denominator <= b.numerator * x.denominator
        and gap * c.denominator % (x.denominator * a.denominator * c.numerator) == 0
    ):
        return KNOWN_REDUCIBLE
    return INDETERMINATE


@lru_cache(maxsize=None)
def reducibility_set(case: HermitianCase) -> ReducibilitySet:
    """The case's closed-form reducible set, built once per case."""
    tag, p, q, n = case.tag, case.p, case.q, case.n
    one = Fraction(1)
    half = Fraction(1, 2)
    if tag == "AIII":
        parts = (Progression(Fraction(1 - min(p, q)), one),)
    elif tag == "CI":
        parts = (Progression(Fraction(1 - n, 2), half),)
    elif tag == "BI":
        parts = (Progression(Fraction(0), one), Progression(Fraction(3 - 2 * n, 2), one))
    elif tag == "DI":
        parts = (Progression(Fraction(2 - n), one),)
    elif tag == "DIII":
        parts = (Progression(2 * Fraction((3 - n) // 2), one),)
    elif tag == "EIII":
        parts = (Progression(Fraction(-3), one),)
    else:
        parts = (Progression(Fraction(-8), one),)
    return ReducibilitySet(case, parts)


def closed_form_reducible(case: HermitianCase, c) -> bool:
    """Membership of c in the case's closed-form reducible set."""
    return reducibility_set(case).contains(c)


def progression_summary(
    case: HermitianCase, scan: list[tuple[Fraction, str]]
) -> ProgressionSummary:
    """Summarize the reducible c-values of a scan as exceptions plus a tail.

    The scan must reach strictly past the last first-reduction point in
    line coordinates and contain at least two reducible values; the tail
    is the longest constant-gap suffix of the sorted reducible values.
    """
    constants = abc_constants(case)
    offset = line_offset(case)
    if not scan:
        raise InsufficientWindowError(f"{case.label}: empty scan")
    top = max(c for c, _ in scan)
    if top + offset <= constants.b:
        raise InsufficientWindowError(
            f"{case.label}: scan must pass z = {format_rational(constants.b)}"
        )
    reducible = sorted(c for c, verdict in scan if verdict == "Reducible")
    if len(reducible) < 2:
        raise InsufficientWindowError(
            f"{case.label}: need at least two reducible points to infer a tail"
        )
    step = reducible[-1] - reducible[-2]
    i = len(reducible) - 2
    while i > 0 and reducible[i] - reducible[i - 1] == step:
        i -= 1
    return ProgressionSummary(tuple(reducible[:i]), reducible[i], step)
