"""Levi chamber normalization.

A weight is either on a Levi reflection wall (Singular) or can be pushed
into the closed dominant chamber of the Levi by a finite word of simple
reflections (Regular, with a canonical representative and the parity of
the word).  Two regular weights lie in one Levi orbit exactly when their
representatives coincide, which is what the sign bookkeeping downstream
rests on.

`normalize` works on exact rational weights.  `normalize_scaled` runs the
same wall scan and descent on an integer vector D*mu against the datum's
`IntegerView`; the oracle uses it, because Levi reflections fix zeta and so
the chamber of rho + c*zeta - k*beta is that of rho - k*beta, shifted by
c*zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .ratvec import Weight, dot, inner, pairing, reflect
from .rootdata import IntegerView, IntVector, ParabolicRootDatum

REGULAR = "Regular"
SINGULAR = "Singular"


@dataclass(frozen=True)
class ChamberForm:
    """Outcome of normalizing one weight against the Levi chamber."""

    status: str
    rep: Weight | None
    parity: int | None
    steps: int

    @property
    def is_regular(self) -> bool:
        return self.status == REGULAR

    @property
    def sign(self) -> int:
        """(-1) to the word length; defined for regular forms only."""
        if not self.is_regular:
            raise ValueError("sign of a singular chamber form")
        return -1 if self.parity else 1


def normalize(datum: ParabolicRootDatum, mu: Weight) -> ChamberForm:
    """Push mu to the dominant Levi chamber, or detect a wall.

    The wall scan runs over every positive Levi root up front; the descent
    then repeatedly reflects at the first simple Levi root with negative
    pairing.  Any valid choice of descent root yields the same
    representative and parity, so the fixed first-negative rule is purely
    for determinism.  For a regular input the step count equals the length
    of the normalizing Weyl word and is bounded by the number of positive
    Levi roots.
    """
    for alpha in datum.levi_positive:
        if inner(mu, alpha) == 0:
            return ChamberForm(SINGULAR, None, None, 0)

    bound = len(datum.levi_positive)
    cur = mu
    steps = 0
    while True:
        descent = None
        for alpha in datum.levi_simples:
            k = pairing(cur, alpha)
            if k == 0:
                raise InvariantError("wall hit during descent after a clean wall scan")
            if k < 0:
                descent = alpha
                break
        if descent is None:
            return ChamberForm(REGULAR, cur, steps % 2, steps)
        cur = reflect(cur, descent)
        steps += 1
        if steps > bound:
            raise InvariantError("chamber descent exceeded the positive-root bound")


def normalize_scaled(view: IntegerView, v: IntVector) -> tuple[IntVector | None, int]:
    """normalize() for the integer vector v = D*mu, in integer arithmetic.

    Returns (D times the representative, steps), or (None, 0) on a wall.
    v must be Levi integral: its pairing 2*dot(v, A) // dot(A, A) with
    each scaled Levi root A is exact.  The wall scan, the first-negative
    descent rule, the step bound and the errors are those of normalize().
    """
    for root, _ in view.levi_positive:
        if dot(v, root) == 0:
            return None, 0

    bound = len(view.levi_positive)
    steps = 0
    while True:
        for root, norm in view.levi_simples:
            d = dot(v, root)
            if d == 0:
                raise InvariantError("wall hit during descent after a clean wall scan")
            if d < 0:
                k = 2 * d // norm
                v = tuple(x - k * a for x, a in zip(v, root))
                break
        else:
            return v, steps
        steps += 1
        if steps > bound:
            raise InvariantError("chamber descent exceeded the positive-root bound")


def theta_pairing(datum: ParabolicRootDatum, mu: Weight) -> Fraction:
    """Inner product against theta_u: a Levi-orbit invariant of mu."""
    return inner(mu, datum.theta_u)
