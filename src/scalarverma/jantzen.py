"""The signed chamber-sum simplicity oracle.

For a scalar highest weight the module is simple exactly when the signed
sum of chamber contributions over the support roots vanishes.  Each
support root contributes the reflected weight of lam + rho; wall terms
drop, and the rest cancel or survive class by class, where a class is a
Levi orbit keyed by its canonical chamber representative.  A nonzero net
sign in any class certifies reducibility, and any member of such a class
serves as a witness.

Only exact rational parameters are accepted.  A parameter with irrational
or non-real scalar part would make every support pairing miss the positive
integers, so such modules are simple for the same reason the empty-support
route is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .ratvec import Weight, add, inner, is_integer, pairing, reflect
from .rootdata import ParabolicRootDatum, build_datum, scalar_parameter_weight
from .weyl import ChamberForm, normalize, theta_pairing

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


@dataclass(frozen=True)
class SimplicityVerdict:
    verdict: str
    route: str
    terms: tuple[JantzenTerm, ...]
    certificate: tuple[RepClass, ...]
    witness: Weight | None

    @property
    def support(self) -> tuple[Weight, ...]:
        return tuple(t.beta for t in self.terms)

    @property
    def surviving(self) -> tuple[RepClass, ...]:
        return tuple(g for g in self.certificate if g.net_sign != 0)


def jantzen_support(datum: ParabolicRootDatum, lam: Weight) -> tuple[Weight, ...]:
    """Nilradical roots whose pairing with lam + rho is a positive integer."""
    mu = add(lam, datum.rho)
    out = []
    for beta in datum.nilradical_roots:
        k = pairing(mu, beta)
        if k > 0 and is_integer(k):
            out.append(beta)
    return tuple(out)


def simplicity_oracle(datum: ParabolicRootDatum, lam: Weight) -> SimplicityVerdict:
    """Decide simplicity of the scalar module with highest weight lam.

    lam must be scalar: orthogonal to every Levi root.  The returned
    verdict carries the full term list and the grouped regular classes, so
    the signed cancellation can be re-checked by hand.
    """
    if any(inner(lam, alpha) != 0 for alpha in datum.levi_simples):
        raise ValueError("highest weight is not scalar: it meets the Levi nontrivially")

    mu = add(lam, datum.rho)
    terms = []
    for beta in jantzen_support(datum, lam):
        level = pairing(mu, beta)
        image = reflect(mu, beta)
        for alpha in datum.levi_positive:
            if not is_integer(pairing(image, alpha)):
                raise InvariantError("support term is not Levi integral")
        terms.append(JantzenTerm(beta, level, image, normalize(datum, image)))

    groups: dict[Weight, list[JantzenTerm]] = {}
    for t in terms:
        if t.chamber.is_regular:
            groups.setdefault(t.chamber.rep, []).append(t)

    certificate = []
    for rep in sorted(groups):
        members = tuple(groups[rep])
        values = {theta_pairing(datum, m.image) for m in members}
        if len(values) != 1:
            raise InvariantError("one chamber class carries two theta values")
        net = sum(m.chamber.sign for m in members)
        certificate.append(RepClass(rep, net, members))
    certificate = tuple(certificate)

    surviving = tuple(g for g in certificate if g.net_sign != 0)
    if not terms:
        verdict, route = SIMPLE, ROUTE_EMPTY_SUPPORT
    elif surviving:
        verdict, route = REDUCIBLE, ROUTE_SUM_SURVIVES
    else:
        verdict, route = SIMPLE, ROUTE_SUM_CANCELS
    witness = surviving[0].members[0].beta if surviving else None

    if (verdict == REDUCIBLE) != bool(surviving):
        raise InvariantError("verdict out of step with the surviving classes")
    return SimplicityVerdict(verdict, route, tuple(terms), certificate, witness)


def classify_scalar(case_or_datum, c) -> SimplicityVerdict:
    """Run the oracle on the scalar weight c * zeta of a case."""
    datum = (
        case_or_datum
        if isinstance(case_or_datum, ParabolicRootDatum)
        else build_datum(case_or_datum)
    )
    return simplicity_oracle(datum, scalar_parameter_weight(datum, Fraction(c)))

