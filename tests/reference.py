"""The rational reference for Jantzen's criterion on a scalar weight.

`simplicity_oracle` decides any scalar weight in `Fraction` arithmetic: the
support from `jantzen_support`, each image by `reflect`, its chamber by the
rational `normalize`, and its theta value, class sums and witness in its own
code.  It builds `jantzen`'s result types, so a verdict of the integer path
can be compared with it whole, certificates included.  It calls nothing of
the integer path it judges.
"""

from __future__ import annotations

from fractions import Fraction

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
    detail = (tuple(terms), tuple(certificate), witness)
    return SimplicityVerdict(*_decide(bool(terms), witness is not None), lambda: detail)
