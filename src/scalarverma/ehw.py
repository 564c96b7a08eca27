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

On a grid c = m * step, each of those progressions is one progression in
m, found by one congruence (`closed_form_grid`), and so is the screen:
known simple below one bound in m, known reducible on one progression
between that bound and m = 0, since z <= B is c <= 0 (`screen_grid`).
`closed_form_reducible` and `abc_verdict` read one point of them, on the
grid of step 1/den at m = num.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientWindowError, InvariantError, Record
from .ratvec import (
    Weight, add, congruence, dot, format_rational, is_integer, pairing, rational, scale, sub
)
from .rootdata import HermitianCase, ParabolicRootDatum, build_datum

KNOWN_SIMPLE = "known_simple"
KNOWN_REDUCIBLE = "known_reducible"
INDETERMINATE = "indeterminate"


class SpecialLine(Record):
    """Base point and line coordinate of one parameter."""

    _fields = ("lambda0", "z")


class ABCConstants(Record):
    """First-reduction constants of one case instance."""

    _fields = ("a", "b", "c")


class ProgressionSummary(Record):
    """A scanned reducible set split into exceptions plus one tail."""

    _fields = ("finite_part", "tail_start", "tail_step")


def special_line(datum: ParabolicRootDatum, lam: Weight) -> SpecialLine:
    """Split lam into its base point and line coordinate."""
    z = pairing(add(lam, datum.rho), datum.gamma)
    return SpecialLine(sub(lam, scale(z, datum.zeta)), z)


@lru_cache(maxsize=None)
def line_offset(case: HermitianCase) -> Fraction:
    """The constant in z = c + offset for scalar parameters c: <rho, gamma^v>.

    It is a / norm of gamma's entry in the datum's integer view.
    """
    datum = build_datum(case)
    nil = datum.integer_view.nilradical[datum.nilradical_roots.index(datum.gamma)]
    return Fraction(nil.a, nil.norm)


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


def _grid_progression(step: Fraction, start: Fraction, spacing: Fraction, ms: range) -> range:
    """The m in ms with m * step in start + spacing * N, in increasing order.

    m * step - start is a multiple of spacing exactly when m * x - y is an
    integer, for x = step / spacing and y = start / spacing: one congruence
    in m.  It is a nonnegative multiple once m >= start / step.
    """
    x, y = step / spacing, start / spacing
    found = congruence(
        x.numerator * y.denominator,
        y.numerator * x.denominator,
        x.denominator * y.denominator,
        max(ms.start, math.ceil(start / step)),
    )
    return range(0) if found is None else range(found[0], ms.stop, found[1])


def screen_grid(constants: ABCConstants, step: Fraction, ms: range) -> tuple[range, range]:
    """The screen on the grid z = m * step + B, m in ms: (known simple m, known reducible m).

    z < A is m below (A - B) / step, and z <= B is m <= 0; between them the
    lattice A + iC is one progression in m.  Every other m is indeterminate.
    """
    start = constants.a - constants.b
    simple = range(ms.start, max(ms.start, min(ms.stop, math.ceil(start / step))))
    return simple, _grid_progression(step, start, constants.c, range(ms.start, min(ms.stop, 1)))


def abc_verdict(constants: ABCConstants, z) -> str:
    """What the first-reduction constants alone say about line coordinate z.

    The one point of `screen_grid` on the grid of step 1/den, at m = num,
    for c = z - B = num / den.
    """
    c = rational(z) - constants.b
    m = c.numerator
    simple, reducible = screen_grid(constants, Fraction(1, c.denominator), range(m, m + 1))
    return KNOWN_SIMPLE if simple else KNOWN_REDUCIBLE if reducible else INDETERMINATE


def closed_form_grid(case: HermitianCase, step: Fraction, ms: range) -> list[range]:
    """The m in ms at which c = m * step lies in the closed-form reducible set.

    In z = c + B the set is the union over j < r of A + jC + N.  2C is an
    integer, so that union is A + N together with A + C + N, and c is
    reducible exactly when c - s is a nonnegative integer for one of the
    starts s = A - B and A - B + C: one progression in m per start.
    """
    con = abc_constants(case)
    start = con.a - con.b
    return [_grid_progression(step, s, Fraction(1), ms) for s in (start, start + con.c)]


def closed_form_reducible(case: HermitianCase, c) -> bool:
    """Membership of c in the case's closed-form reducible set.

    The one point of `closed_form_grid` on the grid of step 1/den, at
    m = num, for c = num / den.
    """
    x = rational(c)
    m = x.numerator
    return any(closed_form_grid(case, Fraction(1, x.denominator), range(m, m + 1)))


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
