"""Frozen reference tables for the two exceptional cases.

Tables 1 and 2 hold reflected-weight coordinates for EIII at the two
integer parameters where reducibility is decided by hand; tables 3 and 4
hold the analogous EVII data symbolically in the scalar parameter a.
Symbolic entries are (coeff, const) pairs meaning coeff*a + const.

Transcribed once, checked against the library, then frozen.  Tests
compare computed rows against these literals; any drift is a regression.

Rows are keyed by a five-place sign pattern: the signs of e1..e5 of a
half-coordinate root.  `sign_pattern_root` rebuilds that root here, apart
from the library, so a check names its roots independently of the code it
checks.
"""

from __future__ import annotations

from fractions import Fraction


def sign_pattern_root(pattern: str, sixth_sign: int) -> tuple[Fraction, ...]:
    """The half-coordinate exceptional root named by a five-place sign pattern.

    ``pattern`` gives the signs of e1..e5 as a string over "+-".
    ``sixth_sign`` (+1 or -1) is the sign of e6; e7 and e8 always carry
    -1/2 and +1/2.
    """
    signs = parse_pattern(pattern)
    if sixth_sign not in (1, -1):
        raise ValueError(f"sixth_sign must be +1 or -1, got {sixth_sign!r}")
    h = Fraction(1, 2)
    return tuple([s * h for s in signs] + [sixth_sign * h, -h, h])


def parse_pattern(pattern: str) -> tuple[int, ...]:
    """A five-place sign pattern as a tuple of +1/-1 signs."""
    if len(pattern) != 5 or any(ch not in "+-" for ch in pattern):
        raise ValueError(f"bad sign pattern {pattern!r}")
    return tuple(1 if ch == "+" else -1 for ch in pattern)


def pattern_string(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def q(value: str | int) -> Fraction:
    return Fraction(value)


def lin(coeff: str | int, const: str | int) -> tuple[Fraction, Fraction]:
    return (Fraction(coeff), Fraction(const))


def lin_row(*pairs: tuple[Fraction, Fraction]) -> tuple[tuple[Fraction, Fraction], ...]:
    return pairs


def evaluate(pairs, a: Fraction) -> tuple[Fraction, ...]:
    """Evaluate a symbolic row at a concrete parameter value."""
    return tuple(coeff * a + const for coeff, const in pairs)


# EIII, z = 9 (c = -2): first-five coordinates of the reflected weight
# for every support pattern.  Patterns +---- and -+--- carry no support
# term at this parameter and so have no row.
TABLE1 = {
    "+++++": (q("-9/2"), q("-7/2"), q("-5/2"), q("-3/2"), q("-1/2")),
    "--+++": (q(4), q(5), q(-2), q(-1), q(0)),
    "-+-++": (q("7/2"), q("-5/2"), q("11/2"), q("-1/2"), q("1/2")),
    "-++-+": (q(3), q(-2), q(-1), q(6), q(1)),
    "-+++-": (q("5/2"), q("-3/2"), q("-1/2"), q("1/2"), q("13/2")),
    "+--++": (q(-3), q(4), q(5), q(0), q(1)),
    "+-+-+": (q("-5/2"), q("7/2"), q("-1/2"), q("11/2"), q("3/2")),
    "+-++-": (q(-2), q(3), q(0), q(1), q(6)),
    "++--+": (q(-2), q(-1), q(4), q(5), q(2)),
    "++-+-": (q("-3/2"), q("-1/2"), q("7/2"), q("3/2"), q("11/2")),
    "+++--": (q(-1), q(0), q(1), q(4), q(5)),
    "----+": (q("3/2"), q("5/2"), q("7/2"), q("9/2"), q("5/2")),
    "---+-": (q(1), q(2), q(3), q(2), q(5)),
    "--+--": (q("1/2"), q("3/2"), q("3/2"), q("7/2"), q("9/2")),
}

# Rows of TABLE1 whose reflected weight avoids every Levi wall.
TABLE1_REGULAR = {"+++++", "--+++", "+--++", "+-+-+", "+-++-"}

# EIII, z = 10 (c = -1).  Only +---- carries no support term here.
TABLE2 = {
    "+++++": (q(-5), q(-4), q(-3), q(-2), q(-1)),
    "--+++": (q("9/2"), q("11/2"), q("-5/2"), q("-3/2"), q("-1/2")),
    "-+-++": (q(4), q(-3), q(6), q(-1), q(0)),
    "-++-+": (q("7/2"), q("-5/2"), q("-3/2"), q("13/2"), q("1/2")),
    "-+++-": (q(3), q(-2), q(-1), q(0), q(7)),
    "+--++": (q("-7/2"), q("9/2"), q("11/2"), q("-1/2"), q("1/2")),
    "+-+-+": (q(-3), q(4), q(-1), q(6), q(1)),
    "+-++-": (q("-5/2"), q("7/2"), q("-1/2"), q("1/2"), q("13/2")),
    "++--+": (q("-5/2"), q("-3/2"), q("9/2"), q("11/2"), q("3/2")),
    "++-+-": (q(-2), q(-1), q(4), q(1), q(6)),
    "+++--": (q("-3/2"), q("-1/2"), q("1/2"), q("9/2"), q("11/2")),
    "----+": (q(2), q(3), q(4), q(5), q(2)),
    "---+-": (q("3/2"), q("5/2"), q("7/2"), q("3/2"), q("11/2")),
    "--+--": (q(1), q(2), q(1), q(4), q(5)),
    "-+---": (q("1/2"), q("1/2"), q("5/2"), q("7/2"), q("9/2")),
}

TABLE2_REGULAR = {"+++++", "--+++", "-+-++", "-++-+", "-+++-"}

# EVII: last-three coordinates of the reflected weight plus its pairing
# against the nilradical direction, symbolically in a.  All sixteen
# patterns appear.  Every row is a direct reflection computation, frozen
# symbolically and pinned by evaluation at several parameters.
TABLE3 = {
    "-++++": lin_row(lin("1/2", -3), lin(0, "-1/2"), lin(0, "1/2"), lin("1/2", "-5/2")),
    "+-+++": lin_row(lin("1/2", "-5/2"), lin(0, -1), lin(0, 1), lin("1/2", "-3/2")),
    "++-++": lin_row(lin("1/2", -2), lin(0, "-3/2"), lin(0, "3/2"), lin("1/2", "-1/2")),
    "+++-+": lin_row(lin("1/2", "-3/2"), lin(0, -2), lin(0, 2), lin("1/2", "1/2")),
    "++++-": lin_row(lin("1/2", -1), lin(0, "-5/2"), lin(0, "5/2"), lin("1/2", "3/2")),
    "---++": lin_row(lin("1/2", "-3/2"), lin(0, -2), lin(0, 2), lin("1/2", "1/2")),
    "--+-+": lin_row(lin("1/2", -1), lin(0, "-5/2"), lin(0, "5/2"), lin("1/2", "3/2")),
    "--++-": lin_row(lin("1/2", "-1/2"), lin(0, -3), lin(0, 3), lin("1/2", "5/2")),
    "-+--+": lin_row(lin("1/2", "-1/2"), lin(0, -3), lin(0, 3), lin("1/2", "5/2")),
    "-+-+-": lin_row(lin("1/2", 0), lin(0, "-7/2"), lin(0, "7/2"), lin("1/2", "7/2")),
    "-++--": lin_row(lin("1/2", "1/2"), lin(0, -4), lin(0, 4), lin("1/2", "9/2")),
    "+---+": lin_row(lin("1/2", 0), lin(0, "-7/2"), lin(0, "7/2"), lin("1/2", "7/2")),
    "+--+-": lin_row(lin("1/2", "1/2"), lin(0, -4), lin(0, 4), lin("1/2", "9/2")),
    "+-+--": lin_row(lin("1/2", 1), lin(0, "-9/2"), lin(0, "9/2"), lin("1/2", "11/2")),
    "++---": lin_row(lin("1/2", "3/2"), lin(0, -5), lin(0, 5), lin("1/2", "13/2")),
    "-----": lin_row(lin("1/2", 2), lin(0, "-11/2"), lin(0, "11/2"), lin("1/2", "15/2")),
}

# EVII: first-five coordinates of the reflected weight, symbolically in
# a, for every pattern except ----- (never a support term on the
# parameter range of interest).  Every row is a direct reflection
# computation, frozen symbolically and pinned by evaluation at two
# parameter values.
TABLE4 = {
    "-++++": lin_row(lin("1/2", 8), lin("-1/2", -7), lin("-1/2", -6), lin("-1/2", -5), lin("-1/2", -4)),
    "+-+++": lin_row(lin("-1/2", "-15/2"), lin("1/2", "17/2"), lin("-1/2", "-11/2"), lin("-1/2", "-9/2"), lin("-1/2", "-7/2")),
    "++-++": lin_row(lin("-1/2", -7), lin("-1/2", -6), lin("1/2", 9), lin("-1/2", -4), lin("-1/2", -3)),
    "+++-+": lin_row(lin("-1/2", "-13/2"), lin("-1/2", "-11/2"), lin("-1/2", "-9/2"), lin("1/2", "19/2"), lin("-1/2", "-5/2")),
    "++++-": lin_row(lin("-1/2", -6), lin("-1/2", -5), lin("-1/2", -4), lin("-1/2", -3), lin("1/2", 10)),
    "---++": lin_row(lin("1/2", "13/2"), lin("1/2", "15/2"), lin("1/2", "17/2"), lin("-1/2", "-7/2"), lin("-1/2", "-5/2")),
    "--+-+": lin_row(lin("1/2", 6), lin("1/2", 7), lin("-1/2", -4), lin("1/2", 9), lin("-1/2", -2)),
    "--++-": lin_row(lin("1/2", "11/2"), lin("1/2", "13/2"), lin("-1/2", "-7/2"), lin("-1/2", "-5/2"), lin("1/2", "19/2")),
    "-+--+": lin_row(lin("1/2", "11/2"), lin("-1/2", "-9/2"), lin("1/2", "15/2"), lin("1/2", "17/2"), lin("-1/2", "-3/2")),
    "-+-+-": lin_row(lin("1/2", 5), lin("-1/2", -4), lin("1/2", 7), lin("-1/2", -2), lin("1/2", 9)),
    "-++--": lin_row(lin("1/2", "9/2"), lin("-1/2", "-7/2"), lin("-1/2", "-5/2"), lin("1/2", "15/2"), lin("1/2", "17/2")),
    "+---+": lin_row(lin("-1/2", -5), lin("1/2", 6), lin("1/2", 7), lin("1/2", 8), lin("-1/2", -1)),
    "+--+-": lin_row(lin("-1/2", "-9/2"), lin("1/2", "11/2"), lin("1/2", "13/2"), lin("-1/2", "-3/2"), lin("1/2", "17/2")),
    "+-+--": lin_row(lin("-1/2", -4), lin("1/2", 5), lin("-1/2", -2), lin("1/2", 7), lin("1/2", 8)),
    "++---": lin_row(lin("-1/2", "-7/2"), lin("-1/2", "-5/2"), lin("1/2", "11/2"), lin("1/2", "13/2"), lin("1/2", "15/2")),
}

# Patterns whose first-five coordinates in TABLE4 at a = -7 have
# pairwise distinct absolute values, i.e. avoid every wall of the
# orthogonal-pair kind.  Only these can be Levi regular there.
TABLE4_CANDIDATES_AT_MINUS_7 = {"-++++", "+-+++", "---++", "--+-+", "--++-"}

# Canonical presentation order: by number of minus signs, then by the
# positions of the minus signs read left to right.
PATTERN_ORDER_EVEN = [
    "+++++",
    "--+++", "-+-++", "-++-+", "-+++-", "+--++", "+-+-+", "+-++-",
    "++--+", "++-+-", "+++--",
    "----+", "---+-", "--+--", "-+---", "+----",
]

PATTERN_ORDER_ODD = [
    "-++++", "+-+++", "++-++", "+++-+", "++++-",
    "---++", "--+-+", "--++-", "-+--+", "-+-+-", "-++--",
    "+---+", "+--+-", "+-+--", "++---",
    "-----",
]
