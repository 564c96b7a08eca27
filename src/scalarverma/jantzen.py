"""The signed chamber-sum simplicity oracle.

For a scalar highest weight the module is simple exactly when the signed
sum of chamber contributions over the support roots vanishes (Jantzen's
simplicity criterion).  Each support root contributes the reflected weight
of lam + rho; wall terms drop, and the rest cancel or survive class by
class, where a class is a Levi orbit keyed by its canonical chamber
representative.  A nonzero net sign in any class certifies reducibility,
and any member of such a class serves as a witness.

`classify_scalar` decides the scalar line lam = c*zeta without rational
vector arithmetic.  The level of a nilradical root beta is affine in c,
k = a_beta + c*b_beta, so the support costs one integer test per root.
Levi reflections fix zeta, so the image mu - k*beta = (rho - k*beta) +
c*zeta has the chamber of the c-free vector rho - k*beta shifted by
c*zeta.  That vector, scaled by the datum's common denominator D, is
decided in integers by `weyl`, which takes only beta's index and the
level k and keeps what it learns of each root's line: a level on one of
beta's Levi walls is Singular, and off them a memoized Weyl word gives the
representative, certified dominant at that level by the interval of
levels stored with the word.  The loop itself forms no vector.  The
verdict and route come from integer sign sums per class; the terms,
classes and witness, the only rationals, are unscaled from the loop's
integer records (root index, level, representative, word length) when a
caller first reads them, so a caller that reads only the verdict and
route never builds a Fraction weight.  The same criterion in rational
arithmetic, on any scalar weight, lives with the tests as the reference
this path is checked against.

Only exact rational parameters are accepted: a float or a bool raises
ValueError.  A parameter with irrational or non-real scalar part would make
every support pairing miss the positive integers, so such modules are
simple for the same reason the empty-support route is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import InvariantError
from .ratvec import Weight, add, is_integer, pairing, rational
from .rootdata import IntVector, ParabolicRootDatum, build_datum
from .weyl import ChamberForm, _line_chamber

SIMPLE = "Simple"
REDUCIBLE = "Reducible"

ROUTE_EMPTY_SUPPORT = "empty_support"
ROUTE_SUM_CANCELS = "sum_cancels"
ROUTE_SUM_SURVIVES = "sum_survives"


@dataclass(frozen=True)
class JantzenTerm:
    """One support root with its reflected weight and chamber outcome."""

    beta: Weight
    level: Fraction
    image: Weight
    chamber: ChamberForm


@dataclass(frozen=True)
class RepClass:
    """All regular terms sharing one chamber representative."""

    rep: Weight
    net_sign: int
    members: tuple[JantzenTerm, ...]


@dataclass(frozen=True, eq=False)
class SimplicityVerdict:
    """A verdict and its route, with the terms, classes and witness behind them.

    `_detail` builds (terms, certificate, witness) on their first read.
    Two verdicts are equal when all five agree.
    """

    verdict: str
    route: str
    _detail: Callable[[], tuple] = field(repr=False)

    @cached_property
    def _parts(self) -> tuple[tuple[JantzenTerm, ...], tuple[RepClass, ...], Weight | None]:
        return self._detail()

    @property
    def terms(self) -> tuple[JantzenTerm, ...]:
        return self._parts[0]

    @property
    def certificate(self) -> tuple[RepClass, ...]:
        return self._parts[1]

    @property
    def witness(self) -> Weight | None:
        return self._parts[2]

    @property
    def surviving(self) -> tuple[RepClass, ...]:
        return tuple(g for g in self.certificate if g.net_sign != 0)

    def __eq__(self, other):
        if not isinstance(other, SimplicityVerdict):
            return NotImplemented
        return (self.verdict, self.route, self._parts) == (other.verdict, other.route, other._parts)


def jantzen_support(datum: ParabolicRootDatum, lam: Weight) -> tuple[Weight, ...]:
    """Nilradical roots whose pairing with lam + rho is a positive integer."""
    mu = add(lam, datum.rho)
    out = []
    for beta in datum.nilradical_roots:
        k = pairing(mu, beta)
        if k > 0 and is_integer(k):
            out.append(beta)
    return tuple(out)


def _decide(has_terms: bool, survives: bool) -> tuple[str, str]:
    """(verdict, route) from whether the support is empty and a class sum survives."""
    if not has_terms:
        return SIMPLE, ROUTE_EMPTY_SUPPORT
    if survives:
        return REDUCIBLE, ROUTE_SUM_SURVIVES
    return SIMPLE, ROUTE_SUM_CANCELS


def classify_scalar(case_or_datum, c) -> SimplicityVerdict:
    """Decide the scalar weight c * zeta of a case.

    Returns the verdict Jantzen's criterion gives for the weight, term for
    term, computed in integers along the scalar line; the rational
    reference in tests/reference.py decides the same weight in Fractions.
    The verdict and route are decided here; the terms, classes and witness
    are unscaled when first read.  The weight is scalar because the datum
    passed validation: zeta is orthogonal to the Levi.
    """
    datum = (
        case_or_datum
        if isinstance(case_or_datum, ParabolicRootDatum)
        else build_datum(case_or_datum)
    )
    c = rational(c)
    view = datum.integer_view
    n, d = c.numerator, c.denominator
    records = []
    # net sign and theta value per class, keyed by its scaled representative
    nets: dict[IntVector, int] = {}
    thetas: dict[IntVector, int] = {}
    split = False
    for j, nil in enumerate(view.nilradical):
        # k = (a + c*b) / norm, a positive integer on the support
        num = d * nil.a + n * nil.b
        if num <= 0 or num % (d * nil.norm):
            continue
        k = num // (d * nil.norm)
        rep, word = _line_chamber(view, j, k)
        records.append((j, k, rep, len(word)))
        if rep is not None:
            # theta_u pairs with c*zeta alike in every term, so comparing
            # the c-free parts compares the theta values.
            theta = view.theta_rho - k * nil.theta_root
            if thetas.setdefault(rep, theta) != theta:
                split = True
            nets[rep] = nets.get(rep, 0) + (-1 if len(word) & 1 else 1)
    # Raised once every term has passed its own checks, as the rational
    # reference raises it.
    if split:
        raise InvariantError("one chamber class carries two theta values")
    verdict, route = _decide(bool(records), any(nets.values()))

    def unscaled():
        # The terms, built from the records; no descent runs again.  Over
        # the denominator d*D, the image rho - k*beta + c*zeta of a scaled
        # vector v = D*(rho - k*beta) is d*v + n*Z.  Images and
        # representatives share most coordinates, so each Fraction is
        # built once.
        den = d * view.denom
        fractions: dict[int, Fraction] = {}

        def unscale(v):
            out = []
            for x, z in zip(v, view.zeta):
                m = d * x + n * z
                f = fractions.get(m)
                if f is None:
                    f = fractions[m] = Fraction(m, den)
                out.append(f)
            return tuple(out)

        terms = []
        groups: dict[IntVector, list[JantzenTerm]] = {}
        for j, k, rep, steps in records:
            chamber = ChamberForm(None if rep is None else unscale(rep), steps)
            v = [r - k * x for r, x in zip(view.rho, view.nilradical[j].root)]
            term = JantzenTerm(datum.nilradical_roots[j], Fraction(k), unscale(v), chamber)
            terms.append(term)
            if rep is not None:
                groups.setdefault(rep, []).append(term)
        # Unscaling is a coordinatewise increasing map, so the integer keys
        # sort as the representatives do.
        certificate = tuple(
            RepClass(g[0].chamber.rep, sum(m.chamber.sign for m in g), tuple(g))
            for _, g in sorted(groups.items())
        )
        witness = next((g.members[0].beta for g in certificate if g.net_sign), None)
        if _decide(bool(terms), witness is not None) != (verdict, route):
            raise InvariantError("verdict out of step with the surviving classes")
        return tuple(terms), certificate, witness

    return SimplicityVerdict(verdict, route, unscaled)
