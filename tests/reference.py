"""The rational reference for Jantzen's criterion on a scalar weight.

`simplicity_oracle` decides any scalar weight in `Fraction` arithmetic: the
support from `jantzen_support`, each image by `reflect`, its chamber by the
rational `normalize`, and its theta value, class sums and witness in its own
code.  It builds `jantzen`'s result types, so a verdict of the integer path
can be compared with it whole, certificates included.  It calls nothing of
the integer path it judges.

`closed_form_reference` and `abc_verdict_reference` are the closed form
and the (A, B, C) screen as their plain `Fraction` definitions, for
checking `ehw`'s progressions on a grid and their one-point reads.
"""

from __future__ import annotations

from fractions import Fraction

from scalarverma.ehw import INDETERMINATE, KNOWN_REDUCIBLE, KNOWN_SIMPLE, ABCConstants
from scalarverma.errors import InvariantError
from scalarverma.jantzen import JantzenTerm, RepClass, SimplicityVerdict, _decide, jantzen_support
from scalarverma.ratvec import Weight, add, inner, is_integer, pairing, reflect
from scalarverma.rootdata import ParabolicRootDatum
from scalarverma.weyl import normalize


def theta_pairing(datum: ParabolicRootDatum, mu: Weight) -> Fraction:
    """Inner product against theta_u: a Levi-orbit invariant of mu."""
    return inner(mu, datum.theta_u)


def simplicity_oracle(datum: ParabolicRootDatum, lam: Weight) -> SimplicityVerdict:
    """Decide simplicity of the scalar module with highest weight lam.

    lam must be scalar: orthogonal to every Levi root.  The verdict carries
    the full term list and the grouped regular classes, sorted by their
    representatives.
    """
    if any(inner(lam, alpha) != 0 for alpha in datum.levi_simples):
        raise ValueError("highest weight is not scalar: it meets the Levi nontrivially")

    mu = add(lam, datum.rho)
    terms = []
    groups: dict[Weight, list[JantzenTerm]] = {}
    for beta in jantzen_support(datum, lam):
        image = reflect(mu, beta)
        if not all(is_integer(pairing(image, alpha)) for alpha in datum.levi_positive):
            raise InvariantError("support term is not Levi integral")
        term = JantzenTerm(beta, pairing(mu, beta), image, normalize(datum, image))
        terms.append(term)
        if term.chamber.is_regular:
            groups.setdefault(term.chamber.rep, []).append(term)

    certificate = []
    for rep in sorted(groups):
        members = tuple(groups[rep])
        if len({theta_pairing(datum, m.image) for m in members}) != 1:
            raise InvariantError("one chamber class carries two theta values")
        certificate.append(RepClass(rep, sum(m.chamber.sign for m in members), members))
    witness = next((g.members[0].beta for g in certificate if g.net_sign), None)
    verdict, route = _decide(bool(terms), witness is not None)
    return SimplicityVerdict(verdict, route, tuple(terms), tuple(certificate), witness)


def closed_form_reference(constants: ABCConstants, c) -> bool:
    """c - s is a natural number for s = A - B or s = A - B + C."""
    x, start = Fraction(c), constants.a - constants.b
    return any(x >= s and is_integer(x - s) for s in (start, start + constants.c))


def abc_verdict_reference(constants: ABCConstants, z) -> str:
    """Known simple for z < A; known reducible for A <= z <= B with (z - A) / C in Z."""
    x = Fraction(z)
    if x < constants.a:
        return KNOWN_SIMPLE
    if x <= constants.b and is_integer((x - constants.a) / constants.c):
        return KNOWN_REDUCIBLE
    return INDETERMINATE
