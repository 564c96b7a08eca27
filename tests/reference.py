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

`scaled_descent` is the integer line's descent in its full-coordinate
form: at every step it recomputes each pairing with a Levi simple root and
reflects whole vectors, where `weyl` updates tracked pairings on one Gram
row.  It checks a fresh descent's word, representative and interval.  It
and `line_record_reference` read the datum's own weights, multiplied by the
view's denominator D once per datum (`ScaledDatum`), and no table of the
integer view.

`orbit_reference` is `rootdata`'s upward orbit walk with every pairing
recomputed as a full dot against a Cartan row and every image as a full
vector, where `rootdata._orbit` updates tracked pairings along one Cartan
column's nonzero entries and the doubled vector on one simple root's
nonzero coordinates.

`line_record_reference` is a root's scalar-line record with one full dot
per Levi positive root, where `weyl` sums the view's coordinate columns
over the root's nonzero coordinates.

`classify_json_reference` and `classify_pretty_reference` write `classify`'s
two formats from a verdict's records: every weight as its `Fraction`
coordinates' strings, the JSON through `json.dumps`.  The command line
writes the same bytes from the integer decision, with no record, from
fragments made once per case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from scalarverma.ehw import INDETERMINATE, KNOWN_REDUCIBLE, KNOWN_SIMPLE, ABCConstants
from scalarverma.errors import InvariantError
from scalarverma.jantzen import (
    REDUCIBLE,
    ROUTE_EMPTY_SUPPORT,
    ROUTE_SUM_CANCELS,
    ROUTE_SUM_SURVIVES,
    SIMPLE,
    JantzenTerm,
    RepClass,
    SimplicityVerdict,
    jantzen_support,
)
from scalarverma.ratvec import Weight, add, dot, inner, is_integer, pairing, reflect
from scalarverma.rootdata import IntVector, ParabolicRootDatum
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
    # Jantzen's criterion: no term, or every class sum cancels, is Simple
    if not terms:
        verdict, route = SIMPLE, ROUTE_EMPTY_SUPPORT
    elif witness is None:
        verdict, route = SIMPLE, ROUTE_SUM_CANCELS
    else:
        verdict, route = REDUCIBLE, ROUTE_SUM_SURVIVES
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


def _scaled(w: Weight, denom: int) -> IntVector:
    """denom * w, in integers; raises ValueError unless denom clears w's denominators."""
    v = [x * denom for x in w]
    if any(x.denominator != 1 for x in v):
        raise ValueError(f"{denom} does not clear the denominators of {w}")
    return tuple(int(x) for x in v)


@dataclass(frozen=True)
class ScaledDatum:
    """rho and the Levi roots of a datum, each multiplied by a common
    denominator D, in integers and in field order."""

    rho: IntVector
    levi_positive: tuple[IntVector, ...]
    levi_simples: tuple[IntVector, ...]


def scaled_datum(datum: ParabolicRootDatum, denom: int) -> ScaledDatum:
    """The datum's own weights times D = denom."""
    scale = lambda ws: tuple(_scaled(w, denom) for w in ws)
    return ScaledDatum(_scaled(datum.rho, denom), scale(datum.levi_positive), scale(datum.levi_simples))


def _reflect_scaled(v: IntVector, root: IntVector) -> IntVector:
    """The reflection of a Levi integral v in the scaled root `root`."""
    k = 2 * dot(v, root) // dot(root, root)
    return tuple(x - k * a for x, a in zip(v, root))


def scaled_descent(
    scaled: ScaledDatum, root: IntVector, k: int
) -> tuple[IntVector, tuple[int, ...], int | float, int | float]:
    """The first-negative descent of v = R - k*B, for R = D*rho and B = root,
    with every dot recomputed at every step.

    Returns (w*v, w, lo, hi): the dominant point, the word as indices into
    the Levi simple roots, and the levels lo..hi at which w*R - k*w*B pairs
    positively with every Levi simple root.  v must be regular.
    """
    v = tuple(r - k * b for r, b in zip(scaled.rho, root))
    wb, word = root, []
    while True:
        for s, a in enumerate(scaled.levi_simples):
            d = dot(v, a)
            if d == 0:
                raise InvariantError("wall hit during descent after a clean wall scan")
            if d < 0:
                v, wb = _reflect_scaled(v, a), _reflect_scaled(wb, a)
                word.append(s)
                break
        else:
            break
        if len(word) > len(scaled.levi_positive):
            raise InvariantError("chamber descent exceeded the positive-root bound")
    wr = tuple(x + k * b for x, b in zip(v, wb))
    lo, hi = -math.inf, math.inf
    for a in scaled.levi_simples:
        p, q = dot(wr, a), dot(wb, a)
        if q > 0:
            hi = min(hi, (p - 1) // q)
        elif q < 0:
            lo = max(lo, -p // -q + 1)
    return v, tuple(word), lo, hi


def orbit_reference(twice: list[IntVector], cartan: list[list[int]]) -> dict[IntVector, IntVector]:
    """The positive roots as coefficient vector -> doubled vector, in walk
    order, with <beta, alpha_i^v> = dot(beta, cartan[i]) at every step.

    From the last root found, each i in index order whose pairing k is
    negative gives the image beta - k*e_i.  Stops at the first repeated
    root, as `rootdata._orbit` does.
    """
    units = [tuple(int(i == j) for j in range(len(twice))) for i in range(len(twice))]
    doubled = dict(zip(units, twice))
    found = set(twice)
    frontier = list(units)
    while frontier and len(found) == len(doubled):
        beta = frontier.pop()
        for i, row in enumerate(cartan):
            k = dot(beta, row)
            image = beta[:i] + (beta[i] - k,) + beta[i + 1 :]
            if k < 0 and image not in doubled:
                doubled[image] = tuple(x - k * y for x, y in zip(doubled[beta], twice[i]))
                found.add(doubled[image])
                frontier.append(image)
    return doubled


def line_record_reference(scaled: ScaledDatum, root: IntVector) -> tuple[frozenset[int], tuple]:
    """The record (singular, ()) of the line R - k*B, for R = D*rho and
    B = root, with dot(B, A) computed in full for each scaled Levi positive
    root A, in order.

    Raises the integer path's InvariantError at the first A for which
    2*dot(R, A) or 2*dot(B, A) is not a multiple of dot(A, A).
    """
    singular = set()
    for a in scaled.levi_positive:
        n, r, b = dot(a, a), dot(scaled.rho, a), dot(root, a)
        if 2 * r % n or 2 * b % n:
            raise InvariantError("support term is not Levi integral")
        if r * b > 0 and r % b == 0:
            singular.add(r // b)
    return frozenset(singular), ()


def _texts(w: Weight) -> list[str]:
    return [str(x) for x in w]


def _parity(term: JantzenTerm) -> str:
    return "odd" if term.chamber.parity else "even"


def _line(datum: ParabolicRootDatum, c: Fraction) -> tuple[Fraction, Weight]:
    """z = c + <rho, gamma^v>, and the base point -<rho, gamma^v> * zeta."""
    offset = pairing(datum.rho, datum.gamma)
    return c + offset, tuple(-offset * x for x in datum.zeta)


def classify_json_reference(datum: ParabolicRootDatum, c: Fraction, verdict: SimplicityVerdict) -> str:
    """`classify --format json`'s output at c, without its final newline,
    written by `json.dumps` from verdict, the decision of c * zeta."""
    case = datum.case
    z, lambda0 = _line(datum, c)
    fields = {"tag": case.tag, "p": case.p, "q": case.q, "n": case.n}
    payload = {
        "case": {k: v for k, v in fields.items() if v is not None},
        "label": case.label,
        "c": str(c),
        "z": str(z),
        "lambda0": _texts(lambda0),
        "verdict": verdict.verdict,
        "route": verdict.route,
        "s_lambda_size": len(verdict.terms),
        "s_lambda": [_texts(t.beta) for t in verdict.terms],
        "singular": [_texts(t.beta) for t in verdict.terms if not t.chamber.is_regular],
        "classes": [
            {
                "rep": _texts(g.rep),
                "net_sign": g.net_sign,
                "members": [
                    {"beta": _texts(m.beta), "level": str(m.level), "parity": _parity(m),
                     "steps": m.chamber.steps}
                    for m in g.members
                ],
            }
            for g in verdict.certificate
        ],
        "surviving_classes": [
            {"rep": _texts(g.rep), "net_sign": g.net_sign, "members": [_texts(m.beta) for m in g.members]}
            for g in verdict.surviving
        ],
        "witness": None if verdict.witness is None else _texts(verdict.witness),
    }
    return json.dumps(payload, indent=2)


def classify_pretty_reference(datum: ParabolicRootDatum, c: Fraction, verdict: SimplicityVerdict) -> str:
    """`classify --format pretty`'s output at c, from verdict, the decision of c * zeta."""
    pretty = lambda w: "[" + ", ".join(_texts(w)) + "]"
    z, lambda0 = _line(datum, c)
    terms = verdict.terms
    lines = [
        f"{datum.case.label}  c = {c}  (z = {z})",
        f"verdict: {verdict.verdict}   route: {verdict.route}",
        f"base point: {pretty(lambda0)}",
        f"support: {len(terms)} roots, {sum(not t.chamber.is_regular for t in terms)} on walls",
    ]
    for g in verdict.certificate:
        betas = ", ".join(f"{pretty(m.beta)} ({_parity(m)})" for m in g.members)
        lines.append(f"  class rep {pretty(g.rep)}  net {g.net_sign:+d}: {betas}")
    if verdict.witness is not None:
        lines.append(f"witness: {pretty(verdict.witness)}")
    return "\n".join(lines) + "\n"
