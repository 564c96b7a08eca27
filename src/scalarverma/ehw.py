"""Special lines, first-reduction constants, and closed-form parameter sets.

Every scalar parameter c sits on the line lam = lam0 + z * zeta through a
base point lam0 orthogonal (shifted by rho) to the highest nilradical
root gamma; z = c + <rho, gamma^v>.  Three constants A <= B (with spacing
C > 0 dividing B - A) govern the first reduction point: below A the module
is known simple, on the lattice A + iC up to B it is known reducible, and
elsewhere the screen is silent.  After Enright, Howe and Wallach (1983),
they come from the real rank r: A = |nilradical| / r, B = <rho, gamma^v> =
A + (r - 1)C, and C = 1 when A = B.  The reducible z-set is the union over
j < r of A + jC + N.  2C is an integer, so that union is A + N together
with A + C + N, and in c = z - B it is two unit progressions, starting at
A - B and A - B + C.
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
    return abc_verdict_ratio(constants, x.numerator, x.denominator)


def abc_verdict_ratio(constants: ABCConstants, num: int, den: int) -> str:
    """`abc_verdict` at z = num / den, for integers num and den > 0."""
    a, b, c = constants.a, constants.b, constants.c
    # z - a = gap / (den * a.denominator), in integers.
    gap = num * a.denominator - a.numerator * den
    if gap < 0:
        return KNOWN_SIMPLE
    if (
        num * b.denominator <= b.numerator * den
        and gap * c.denominator % (den * a.denominator * c.numerator) == 0
    ):
        return KNOWN_REDUCIBLE
    return INDETERMINATE


@lru_cache(maxsize=None)
def _closed_form_starts(case: HermitianCase) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of A - B and A - B + C, built once per case."""
    con = abc_constants(case)
    start = con.a - con.b
    return tuple((s.numerator, s.denominator) for s in (start, start + con.c))


def closed_form_reducible(case: HermitianCase, c) -> bool:
    """Membership of c in the case's closed-form reducible set.

    In z = c + B the set is the union over j < r of A + jC + N.  2C is an
    integer, so that union is A + N together with A + C + N, and c is
    reducible exactly when c - s is a nonnegative integer for one of the
    starts s = A - B and A - B + C.
    """
    x = rational(c)
    return closed_form_reducible_ratio(case, x.numerator, x.denominator)


def closed_form_reducible_ratio(case: HermitianCase, num: int, den: int) -> bool:
    """`closed_form_reducible` at c = num / den, in lowest terms with den > 0."""
    # c - s is an integer exactly when c and s, both in lowest terms, share
    # their denominator and their numerators are congruent modulo it.
    for sn, sd in _closed_form_starts(case):
        if den == sd and num >= sn and (num - sn) % den == 0:
            return True
    return False


def progression_summary(
    case: HermitianCase, scan: list[tuple[Fraction, str]]
) -> ProgressionSummary:
    """Summarize the reducible c-values of a scan as exceptions plus a tail.

    The scan must reach strictly past the last first-reduction point in
    line coordinates and contain at least two distinct reducible values;
    the tail is the longest constant-gap suffix of the sorted distinct
    reducible values, so a point scanned twice counts once.
    """
    constants = abc_constants(case)
    if not scan:
        raise InsufficientWindowError(f"{case.label}: empty scan")
    # The last first-reduction point is z = B, which is c = 0.
    if max(c for c, _ in scan) <= 0:
        raise InsufficientWindowError(
            f"{case.label}: scan must pass z = {format_rational(constants.b)}"
        )
    reducible = sorted({c for c, verdict in scan if verdict == "Reducible"})
    if len(reducible) < 2:
        raise InsufficientWindowError(
            f"{case.label}: need at least two reducible points to infer a tail"
        )
    step = reducible[-1] - reducible[-2]
    i = len(reducible) - 2
    while i > 0 and reducible[i] - reducible[i - 1] == step:
        i -= 1
    return ProgressionSummary(tuple(reducible[:i]), reducible[i], step)
