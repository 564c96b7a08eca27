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
levels stored with the word, or a fresh descent, which needs no wall scan
of its own, finds the word and stores its interval.  The entry's w*R and
w*B give the representative at level k as w*R - k*w*B, the class's key,
and the entry's word its parity.

`_classify_point` decides one point in one pass over the nilradical: each
support root makes one fetch, and its term (root index, level, entry)
joins the class of its key.  A class's net sign is the sum of its
members' parities, and the classes run in key order, which is the order
of their representatives, as the representatives share c*zeta.  Its
certificate is in integers: the terms, and the classes, each with its
representative as numerators over one denominator, its members and its
net sign.  The command line writes its text straight from that
certificate, and `classify_scalar` unscales it to its records: the terms,
classes and witness, the only rationals, each regular term taking its
class's representative.  The same criterion in rational arithmetic, on
any scalar weight, lives with the tests as the reference this path is
checked against.

`ScalarGrid` decides a whole grid c = m * step the other way round, root
by root.  A root's level is affine in c, so the grid points at which it is
a positive integer form one arithmetic progression in m, found by one
congruence; the grid's support terms are counted from those progressions
before any is decided.  A point no progression visits is Simple by the
empty-support route, at no cost per root, and is left out of the
decision, which holds the verdict and route of the visited points only.
Its walk, `_walk`, holds each root's current entry and decides every
level inside the entry's interval by the entry's key, going back to
`weyl` only for a level past it.  There the key is packed into one
integer: P(u) = sum of u[i] * 2**(s*(d-1-i)), so the key at level k is
P(w*R) - k*P(w*B), one multiply-subtract.  P is linear, and injective and
ordered as tuples are while each coordinate lies below 2**(s-1) in
magnitude; Levi reflections are orthogonal, so a coordinate of the
representative at level k is at most |R| + k*|B|, and `_line_width`
derives the width s from the data and the walk's own highest level.  The
packed pairs live in a table the grid owns, so a grid packs each entry
once per width however many blocks fetch it, and no width is shared
between requests: a datum and its memo may be shared across threads.

Only exact rational parameters are accepted: a float or a bool raises
ValueError.  A parameter with irrational or non-real scalar part would make
every support pairing miss the positive integers, so such modules are
simple for the same reason the empty-support route is.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError, Record
from .ratvec import Weight, add, congruence, is_integer, pairing, rational
from .rootdata import IntegerView, IntVector, ParabolicRootDatum, build_datum
from .weyl import ChamberForm, _line_chamber

SIMPLE = "Simple"
REDUCIBLE = "Reducible"

ROUTE_EMPTY_SUPPORT = "empty_support"
ROUTE_SUM_CANCELS = "sum_cancels"
ROUTE_SUM_SURVIVES = "sum_survives"


class JantzenTerm(Record):
    """One support root with its reflected weight and chamber outcome."""

    _fields = ("beta", "level", "image", "chamber")


class RepClass(Record):
    """All regular terms sharing one chamber representative."""

    _fields = ("rep", "net_sign", "members")


class SimplicityVerdict(Record):
    """A verdict and its route, with the terms, classes and witness behind them."""

    _fields = ("verdict", "route", "terms", "certificate", "witness")

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


_THETA_SPLIT = "one chamber class carries two theta values"


def _pack(u: IntVector, width: int) -> int:
    """P(u) = sum of u[i] * 2**(width*(d-1-i)): u's coordinates as signed digits."""
    key = 0
    for x in u:
        key = (key << width) + x
    return key


def _line_width(view: IntegerView, top: int) -> int:
    """A packing width whose keys hold at every level 1..top.

    An entry's key at level k is P(w*R) - k*P(w*B) = P(w*R - k*w*B), as P is
    linear.  P is injective, and orders vectors as tuples, while every
    coordinate lies below 2**(width-1) in magnitude.  A Levi word is an
    orthogonal map, so each coordinate of w*(R - k*B) is at most
    |R| + k*|B| < r + k*b, for the view's bounds r > |R| and b > |B|
    (`rho_bound` and `root_bound`).
    """
    return (view.rho_bound + top * view.root_bound).bit_length() + 1


def _walk(view: IntegerView, walks, size: int, packs: dict):
    """Decide the grid points 0 .. size-1 from per-root walks.

    `walks` lists, per root j, (j, index of its first point, period, its
    level there, level step): root j is in the support at every period-th
    point from the first, its level rising by the step.  The walk takes one
    packing width, before the first term, that serves its top level, and
    reads each fetched entry's pair (P(w*R), P(w*B)) from
    packs[width][(j, lo)], packing it there on a miss; an entry is named by
    its root and lo, as a root's entries are disjoint.  The walk holds root
    j's current memo entry and decides each level inside its lo..hi by the
    entry's key P(w*R) - k*P(w*B) and the parity of its word; only a level
    past hi, on a wall or in another entry, goes back to `weyl`.  Each
    regular term adds its sign to its class's [net sign, theta value],
    keyed by the representative's key; theta_u pairs with c*zeta alike in
    every term, so the c-free part stands for the term's theta value.
    Returns the (verdict, route) of each point a walk visits, by its index,
    so a point missing from it has an empty support and is Simple by
    `empty_support`.  Nothing is built per point a walk skips.  A theta
    split raises InvariantError once every term has passed its own checks,
    as the rational reference raises it.
    """
    if walks:
        # a walk that starts past the last point reads below its first level
        tops = [k + (size - 1 - i) // period * rise for _, i, period, k, rise in walks]
        width = _line_width(view, max(tops))
        packed = packs.setdefault(width, {})
    theta_rho = view.theta_rho
    # per visited point, by index: its classes' [net sign, theta value]
    points: dict[int, dict[int, list[int]]] = {}
    split = False
    for j, start, period, k, rise in walks:
        theta_root = view.nilradical[j].theta_root
        hi = 0
        for i in range(start, size, period):
            if k > hi:
                entry = _line_chamber(view, j, k)
                if entry is None:
                    hi = k
                else:
                    lo, hi, wr, wb, word = entry
                    pair = packed.get((j, lo))
                    if pair is None:
                        pair = packed[j, lo] = _pack(wr, width), _pack(wb, width)
                    pr, pb = pair
                    sign = -1 if len(word) & 1 else 1
            classes = points.get(i)
            if classes is None:
                classes = points[i] = {}
            if entry is not None:
                key = pr - k * pb
                theta = theta_rho - k * theta_root
                held = classes.get(key)
                if held is None:
                    classes[key] = [sign, theta]
                else:
                    held[0] += sign
                    split |= held[1] != theta
            k += rise
    if split:
        raise InvariantError(_THETA_SPLIT)
    # a visited point has terms: Reducible exactly when a class sum survives
    survives, cancels = (REDUCIBLE, ROUTE_SUM_SURVIVES), (SIMPLE, ROUTE_SUM_CANCELS)
    return {i: survives if any(n for n, _ in c.values()) else cancels for i, c in points.items()}


def _classify_point(view: IntegerView, n: int, d: int):
    """Decide the scalar weight c * zeta, for c = n/d with d > 0, in
    integers, with its certificate.

    One pass over the nilradical: root j's level is k = (a + c*b) / norm,
    and j is in the support exactly when k is a positive integer.  Each
    support root makes one fetch from `weyl`, and a regular term's class is
    keyed by the c-free part of its representative, the tuple w*R - k*w*B,
    which orders the classes as their representatives.  Returns (verdict,
    route, terms, classes, witness, den): the terms are (j, k, entry), one
    per support root in the datum's order, the entry None on a wall; the
    classes are (rep, net sign, members) in key order, the members being
    the class's terms in the datum's order and the net sign the sum of
    their parities; the witness is the root index j of the first member of
    the first class whose sum survives, or None.  rep is the class's
    representative w*(rho - k*beta) + c*zeta as numerators over den = d*D,
    for the view's denominator D: d*key + n*Z.  theta_u pairs with c*zeta
    alike in every term, so the c-free theta_rho - k*theta_root stands for a
    term's theta value; a class holding two raises InvariantError once every
    term has been fetched.
    """
    terms, groups = [], {}
    for j, nil in enumerate(view.nilradical):
        k, r = divmod(d * nil.a + n * nil.b, d * nil.norm)
        if k > 0 and r == 0:
            entry = _line_chamber(view, j, k)
            terms.append((j, k, entry))
            if entry is not None:
                key = tuple([x - k * y for x, y in zip(entry[2], entry[3])])
                groups.setdefault(key, []).append(terms[-1])
    classes = []
    for key, members in sorted(groups.items()):
        if len({view.theta_rho - k * view.nilradical[j].theta_root for j, k, _ in members}) > 1:
            raise InvariantError(_THETA_SPLIT)
        net = sum(-1 if len(entry[4]) & 1 else 1 for _, _, entry in members)
        classes.append(([d * x + n * z for x, z in zip(key, view.zeta)], net, members))
    witness = next((members[0][0] for _, net, members in classes if net), None)
    verdict = SIMPLE if witness is None else REDUCIBLE
    route = ROUTE_SUM_SURVIVES if witness is not None else ROUTE_SUM_CANCELS if terms else ROUTE_EMPTY_SUPPORT
    return verdict, route, terms, classes, witness, d * view.denom


def classify_scalar(case_or_datum, c) -> SimplicityVerdict:
    """Decide the scalar weight c * zeta of a case.

    Returns the verdict Jantzen's criterion gives for the weight, term for
    term, computed in integers along the scalar line; the rational
    reference in tests/reference.py decides the same weight in Fractions.
    The decision and its certificate are `_classify_point`'s; the terms,
    classes and witness are unscaled from it, each regular term taking its
    class's representative, and each class keeps its net sign.  The weight
    is scalar because the datum passed validation: zeta is orthogonal to the
    Levi.
    """
    datum = (
        case_or_datum
        if isinstance(case_or_datum, ParabolicRootDatum)
        else build_datum(case_or_datum)
    )
    c = rational(c)
    n, d = c.numerator, c.denominator
    view = datum.integer_view
    verdict, route, fetched, classes, witness, den = _classify_point(view, n, d)
    # Images and representatives are numerators over den and share most
    # coordinates, so each Fraction is built once.
    fractions: dict[int, Fraction] = {}

    def unscale(v):
        out = []
        for m in v:
            f = fractions.get(m)
            if f is None:
                f = fractions[m] = Fraction(m, den)
            out.append(f)
        return tuple(out)

    # each regular term takes its class's representative, by its root's index
    reps = {}
    for rep, _, members in classes:
        rep = unscale(rep)
        for m in members:
            reps[m[0]] = rep
    # the image rho - k*beta + c*zeta, for c = n/d, is d*(R - k*B) + n*Z over
    # den; one support term per root, so a term is named by its root's index
    terms: dict[int, JantzenTerm] = {}
    for j, k, entry in fetched:
        image = [d * (r - k * x) + n * z for r, x, z in zip(view.rho, view.nilradical[j].root, view.zeta)]
        rep, steps = (None, 0) if entry is None else (reps[j], len(entry[4]))
        terms[j] = JantzenTerm(datum.nilradical_roots[j], Fraction(k), unscale(image), ChamberForm(rep, steps))
    certificate = tuple(
        RepClass(terms[members[0][0]].chamber.rep, net, tuple([terms[m[0]] for m in members]))
        for _, net, members in classes
    )
    beta = None if witness is None else datum.nilradical_roots[witness]
    return SimplicityVerdict(verdict, route, tuple(terms.values()), certificate, beta)


class ScalarGrid:
    """The scalar line of one datum on the grid c = m * step, decided root by root.

    Root beta's level at grid point m is k = (a*t + m*s*b) / (t*norm), for
    step = s/t in lowest terms and the root's scaled numbers a, b and norm.
    It is a positive integer exactly when (s*b)*m = -a*t modulo t*norm and
    m > -a*t / (s*b), with b > 0 because zeta is positive on the nilradical.
    So beta's support points are one arithmetic progression in m, whose
    first point and period are found once, by one congruence; along it the
    level rises by a fixed step.  A window's support terms are counted
    without deciding any, and a point that no progression visits is Simple
    by the empty support, with no per-root work.  The grid keeps one table
    of packed pairs for all its blocks (`_walk`).
    """

    def __init__(self, datum: ParabolicRootDatum, step):
        step = rational(step)
        if step <= 0:
            raise ValueError("step must be positive")
        self.step = step
        s, t = step.numerator, step.denominator
        self.view = view = datum.integer_view
        # (j, first m, period, level at the first m, level step) per root
        progressions = []
        for j, nil in enumerate(view.nilradical):
            slope, modulus = s * nil.b, t * nil.norm
            found = congruence(slope, -nil.a * t, modulus, -nil.a * t // slope + 1)
            if found is None:
                continue
            first, period = found
            level = (nil.a * t + first * slope) // modulus
            progressions.append((j, first, period, level, slope * period // modulus))
        self._progressions = tuple(progressions)
        self._packs: dict = {}

    def _walks(self, ms: range):
        """Per root: (j, index in ms of its first point there, period, its level, level step)."""
        for j, first, period, level, rise in self._progressions:
            # the progression's first point at or after ms.start
            skip = max(0, -((first - ms.start) // period))
            yield j, first + skip * period - ms.start, period, level + skip * rise, rise

    def terms(self, ms: range) -> int:
        """The number of support terms over the grid points m * step, m in ms."""
        size = ms.stop - ms.start
        walks = self._walks(ms)
        return sum((size - 1 - i) // period + 1 for _, i, period, _, _ in walks if i < size)

    def decide(self, ms: range) -> dict[int, tuple[str, str]]:
        """(verdict, route) of the grid points m * step, m in ms, that the support visits.

        The dict is keyed by the point's index in ms and holds exactly the
        points with a nonempty support; a point missing from it is Simple by
        `empty_support`.  The same verdict and route as `classify_scalar` at
        each point, from the same terms; InvariantError is raised once every
        term of the range has been decided.
        """
        return _walk(self.view, list(self._walks(ms)), len(ms), self._packs)
