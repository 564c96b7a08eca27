"""Special lines, first-reduction constants, and closed-form parameter sets.

Every scalar parameter c sits on the line lam = lam0 + z * zeta through a
base point lam0 orthogonal (shifted by rho) to the highest nilradical
root gamma; z = c + <rho, gamma^v>.  Three constants A <= B (with spacing
C > 0 dividing B - A) govern the first reduction point: below A the module
is known simple, on the lattice A + iC up to B it is known reducible, and
elsewhere the screen is silent.  After Enright, Howe and Wallach (1983),
they come from the real rank r: A = |nilradical| / r, B = <rho, gamma^v> =
A + (r - 1)C, and C = 1 when A = B.  The reducible z-set is the union over
j < r of A + jC + N, a union of progressions in c = z - B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientWindowError, InvariantError
from .ratvec import Weight, add, dot, format_rational, is_integer, pairing, rational, scale, sub
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
        x = rational(c)
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


@lru_cache(maxsize=None)
def line_offset(case: HermitianCase) -> Fraction:
    """The constant in z = c + offset for scalar parameters c: <rho, gamma^v>."""
    datum = build_datum(case)
    return pairing(datum.rho, datum.gamma)


def _real_rank(datum: ParabolicRootDatum) -> int:
    """The length of Harish-Chandra's cascade of strongly orthogonal roots.

    Roots of an abelian nilradical never sum to a root, so orthogonal ones
    are strongly orthogonal.  nil.a orders the roots as dot(rho, .) does.
    """
    kept = []
    for nil in sorted(datum.integer_view.nilradical, key=lambda nil: -nil.a):
        if all(dot(nil.root, root) == 0 for root in kept):
            kept.append(nil.root)
    return len(kept)


@lru_cache(maxsize=None)
def abc_constants(case: HermitianCase) -> ABCConstants:
    """(A, B, C) of a case, from its real rank, nilradical size and line offset."""
    datum = build_datum(case)
    r = _real_rank(datum)
    a = Fraction(len(datum.nilradical_roots), r)
    b = line_offset(case)
    # EHW: A = (r - 1)s + b' + 1 and B = A + (r - 1)s, with 2s and b' in N;
    # s = 0 when A = B (r = 1, or DI(2)), and C is then 1.
    s = (b - a) / (r - 1) if r > 1 else Fraction(0)
    extra = a - 1 - (r - 1) * s
    if a + (r - 1) * s != b or min(s, extra) < 0 or not is_integer(2 * s) or not is_integer(extra):
        raise InvariantError(f"{case.label}: malformed first-reduction constants")
    return ABCConstants(a, b, s or Fraction(1))


def abc_verdict(constants: ABCConstants, z) -> str:
    """What the first-reduction constants alone say about line coordinate z."""
    x = rational(z)
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
    con = abc_constants(case)
    # In z: A + N, and A + C + N when 2C is odd; one part when C = 1/2.
    start = con.a - con.b
    if is_integer(con.c) or con.c == Fraction(1, 2):
        parts = (Progression(start, min(con.c, Fraction(1))),)
    else:
        parts = (Progression(start, Fraction(1)), Progression(start + con.c, Fraction(1)))
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
