"""The Enright-Howe-Wallach constants and reducible sets, family by family.

These are the per-family formulas of the literature, written out by hand:
the first reduction point A, the last one B and their spacing C in the line
coordinate z, and the reducible c-set as a union of arithmetic progressions
{start + k * step : k = 0, 1, 2, ...}.  The library derives the same data
from each case's root datum; the tests check the two against each other.
"""

from __future__ import annotations

from fractions import Fraction

from scalarverma.rootdata import HermitianCase


def table_abc(case: HermitianCase) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) of a case, as the literature gives them."""
    tag, p, q, n = case.tag, case.p, case.q, case.n
    if tag == "AIII":
        return Fraction(max(p, q)), Fraction(p + q - 1), Fraction(1)
    if tag == "CI":
        return Fraction(n + 1, 2), Fraction(n), Fraction(1, 2)
    if tag == "BI":
        return Fraction(2 * n - 1, 2), Fraction(2 * n - 2), Fraction(2 * n - 3, 2)
    if tag == "DI":
        # At n = 2 the general spacing formula degenerates to zero; with
        # A = B the lattice is the single point A and any positive spacing
        # serves.
        return Fraction(n - 1), Fraction(2 * n - 3), Fraction(n - 2) if n > 2 else Fraction(1)
    if tag == "DIII":
        a = Fraction(n - 1) if n % 2 == 0 else Fraction(n)
        return a, Fraction(2 * n - 3), Fraction(2)
    if tag == "EIII":
        return Fraction(8), Fraction(11), Fraction(3)
    return Fraction(9), Fraction(17), Fraction(4)


def table_progressions(case: HermitianCase) -> tuple[tuple[Fraction, Fraction], ...]:
    """The reducible c-set of a case as (start, step) pairs."""
    tag, p, q, n = case.tag, case.p, case.q, case.n
    one, half = Fraction(1), Fraction(1, 2)
    if tag == "AIII":
        return ((Fraction(1 - min(p, q)), one),)
    if tag == "CI":
        return ((Fraction(1 - n, 2), half),)
    if tag == "BI":
        return ((Fraction(0), one), (Fraction(3 - 2 * n, 2), one))
    if tag == "DI":
        return ((Fraction(2 - n), one),)
    if tag == "DIII":
        return ((2 * Fraction((3 - n) // 2), one),)
    if tag == "EIII":
        return ((Fraction(-3), one),)
    return ((Fraction(-8), one),)


def in_table_set(case: HermitianCase, c: Fraction) -> bool:
    """Membership of c in the table's reducible c-set, in Fraction arithmetic."""
    for start, step in table_progressions(case):
        k = (c - start) / step
        if k >= 0 and k.denominator == 1:
            return True
    return False
