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

All of this runs on integers.  2A, 2B and 2C are integers, and
`abc_constants` checks them as such, from the nilradical's size, the real
rank and gamma's a and norm in the datum's integer view; it builds the
`Fraction` constants only to return them.  The grid functions read the step
and the constants as (numerator, denominator) pairs, and each progression
is one congruence on their products: no `Fraction` is divided, subtracted
or rounded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientWindowError, InvariantError, Record
from .ratvec import Weight, add, congruence, dot, pairing, rational, scale, sub
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


def _gamma_level(datum: ParabolicRootDatum):
    """gamma's entry in the datum's integer view.

    A built datum's gamma is one of its nilradical tuples, and so is a
    copy's, unless a field was changed: it is looked for by identity first,
    which compares no Fraction, then by equality.
    """
    roots, gamma = datum.nilradical_roots, datum.gamma
    j = next((j for j, beta in enumerate(roots) if beta is gamma), None)
    return datum.integer_view.nilradical[roots.index(gamma) if j is None else j]


@lru_cache(maxsize=None)
def line_offset(case: HermitianCase) -> Fraction:
    """The constant in z = c + offset for scalar parameters c: <rho, gamma^v>.

    It is a / norm of gamma's entry in the datum's integer view.
    """
    nil = _gamma_level(build_datum(case))
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
    """(A, B, C) of a case, from its real rank r, nilradical size and line offset.

    EHW: A = |nilradical| / r = (r - 1)s + b' + 1 and B = A + (r - 1)s,
    with 2s and b' in N; s = 0 when A = B (r = 1, or DI(2)), and C is then
    1, else C = s.  So 2A, 2B and 2C are integers, and the checks run on
    them: 2A from |nilradical| and r, 2B from gamma's a and norm in the
    integer view (B = a / norm), 2s = (2B - 2A) / (r - 1) and
    2b' = 2A - 2 - (r - 1) * 2s.
    """
    datum = build_datum(case)
    r = _real_rank(datum)
    gamma = _gamma_level(datum)
    a2, a_rem = divmod(2 * len(datum.nilradical_roots), r)
    b2, b_rem = divmod(2 * gamma.a, gamma.norm)
    s2, s_rem = divmod(b2 - a2, r - 1) if r > 1 else (0, b2 - a2)
    extra2 = a2 - 2 - (r - 1) * s2
    if a_rem or b_rem or s_rem or s2 < 0 or extra2 < 0 or extra2 % 2:
        raise InvariantError(f"{case.label}: malformed first-reduction constants")
    return ABCConstants(Fraction(a2, 2), Fraction(b2, 2), Fraction(s2 or 2, 2))


def _progression(
    step: Fraction, start: tuple[int, int], spacing: tuple[int, int], low: int, stop: int
) -> range:
    """The m in low..stop-1 with m * step in start + spacing * N, in increasing order.

    start = p/q and spacing = u/v are pairs of integers, q, u and v
    positive, and step = s/t > 0.  m * s/t = p/q + i * u/v is
    (s*q*v) * m = p*t*v + i * (u*t*q): one congruence in m modulo u*t*q.
    i >= 0 is m >= p*t / (s*q).
    """
    s, t = step.numerator, step.denominator
    (p, q), (u, v) = start, spacing
    found = congruence(s * q * v, p * t * v, u * t * q, max(low, -(-p * t // (s * q))))
    return range(0) if found is None else range(found[0], stop, found[1])


def _start(constants: ABCConstants) -> tuple[int, int]:
    """A - B as a pair (numerator, positive denominator), not in lowest terms."""
    (an, ad), (bn, bd) = constants.a.as_integer_ratio(), constants.b.as_integer_ratio()
    return an * bd - bn * ad, ad * bd


def screen_grid(constants: ABCConstants, step: Fraction, ms: range) -> tuple[range, range]:
    """The screen on the grid z = m * step + B, m in ms: (known simple m, known reducible m).

    z < A is m below (A - B) / step, and z <= B is m <= 0; between them the
    lattice A + iC is one progression in m.  Every other m is indeterminate.
    The constants and the step are read as pairs of integers.
    """
    p, q = start = _start(constants)
    # m < (A - B) / step is m < ceil(p*t / (q*s))
    bound = -(-p * step.denominator // (q * step.numerator))
    simple = range(ms.start, max(ms.start, min(ms.stop, bound)))
    reducible = _progression(step, start, constants.c.as_integer_ratio(), ms.start, min(ms.stop, 1))
    return simple, reducible


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
    starts s = A - B and A - B + C: one progression in m per start.  The
    constants and the step are read as pairs of integers.
    """
    con = abc_constants(case)
    p, q = _start(con)
    cn, cd = con.c.as_integer_ratio()
    starts = ((p, q), (p * cd + cn * q, q * cd))
    return [_progression(step, start, (1, 1), ms.start, ms.stop) for start in starts]


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
            f"{case.label}: scan must pass z = {constants.b}"
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
