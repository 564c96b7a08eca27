"""Case tags and parabolic root data for the seven Hermitian families.

Each case fixes a coordinate realization of a simple root system together
with a parabolic of abelian type: an ordered simple system, the
noncompact simple root, the Levi and nilradical halves of the positive
roots, the half-sum rho, the highest nilradical root gamma, and the scalar
direction zeta (orthogonal to the Levi, normalized against gamma).

Each family writes out only its simple roots, doubled (2*alpha as an
integer vector), and its noncompact simple indices; every other field is
derived from them.  So every root of a realization lies in (1/2)Z^dim by
construction of the doubled tables.  The positive roots are walked
upward from the simple roots (Humphreys, Introduction to Lie Algebras and
Representation Theory, 10.2): from a root beta the walk takes s_i only
where k = <beta, alpha_i^v> is negative, and the image beta + |k| alpha_i
is a root of greater height.  That reaches every positive root: one above
height 1 pairs positively with some alpha_i, s_i takes it to a positive
root of lower height, and it is the upward move from that root.  Each root
is carried as its simple-root coefficient vector, its doubled coordinates
and its pairings with the simple coroots.  A move adds |k| e_i to the
coefficient vector, so it adds |k| times column i of the Cartan matrix to
the pairings and |k| times the doubled alpha_i to the coordinates, each
only where that column or that root is nonzero: the walk computes no dot
product.  Nor does the simple roots' Gram matrix, summed over the
coordinates they share.  `_derive` works in these integers and makes
`Fraction`s only for the fields it returns, one per distinct doubled
coordinate of the roots.  It checks the datum as it builds it, in integers
on those vectors:

- every simple root has the ambient dimension and is nonzero;
- the system is crystallographic: every 2*dot(a, b) / dot(a, a) over two
  simple roots a and b is an integer;
- no two positive roots coincide;
- the noncompact indices name one simple root, so the Levi simples are the
  others (not checked for the degenerate DI(2) and DIII(2));
- the nilradical is abelian: each of its roots has noncompact coefficients
  summing to 1;
- gamma is the highest root: its vector dominates every positive root's,
  coefficient by coefficient (not checked for DI(2) and DIII(2));
- the nilradical's sum, of which zeta and theta_u are multiples, is
  orthogonal to the Levi and positive on the nilradical;
- for EIII and EVII, every positive root lies in the subspace of R^8 that
  realizes E6 or E7.

Data are built once per case and cached; every field of a datum is an
immutable value, safe to share across threads.  Each datum also derives, on
first use, an integer view of itself (`IntegerView`) for the c-free chamber
arithmetic of the oracle.  The view holds only the datum's own scaled
numbers and the dots among them that `weyl`'s descent reads in place of
recomputing them, plus one dict in which `weyl` keeps a record per root of
that root's scalar line: its singular levels and its certified words,
built once the root's Levi integrality is checked.  `weyl` replaces a
root's immutable record whole and writes no other, so a datum and its
view may be shared across threads: a lost update loses only a word,
which the next request finds again.

The view is scaled from six weight groups (`Group`): rho, zeta, theta_u,
the nilradical roots, the Levi positive roots and the Levi simple roots,
each as integer vectors over one denominator.  D is the lcm of the groups'
denominators in lowest terms, and each group is scaled by D over its
denominator.  A datum `_derive` returns keeps its groups
(`ParabolicRootDatum._integers`), attached after the constructor, in the
integers the build already holds: 4*rho (the column sums of the doubled
positive roots) over 4, zeta and theta_u as nil2 * dot(b, b) over
4*dot(nil2, b) for their root b, and the roots' doubled vectors over 2.
Three more groups follow the six, each of doubled vectors over 2: the
simple roots, the noncompact simple root and gamma.  So each root field
that output writes has its own group, aligned with the field, and no root
is found by its tuple.  Its view makes no `Fraction`, and output writes
every weight of the datum from these integers, with no `Fraction`
formatted per coordinate.  The record is left out of the datum's repr
(which tests pin by sha256) and equality.  Any other datum, such as a
copy with some fields changed, reads the class's None and makes its six
groups from its `Fraction` fields, each over that field's lcm; one rule
scales both.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain

from .errors import InvariantError, Record, set_field
from .ratvec import Weight, dot, scale

CASE_TAGS = ("AIII", "CI", "BI", "DI", "DIII", "EIII", "EVII")

# Largest ambient dimension (p + q for AIII, n otherwise): the highest rank
# perfbench runs, which keeps every request's cost bounded (README gives a
# cold CI(20) classify's time).
MAX_AMBIENT_DIM = 20

IntVector = tuple[int, ...]

# Tags whose rank-2 orthogonal instance degenerates: so(4) = sl(2) + sl(2),
# so the D2 picture has no highest root and (for DI) an empty Levi system.
_D2_DEGENERATE = {("DI", 2), ("DIII", 2)}


class HermitianCase(Record):
    """A case tag plus its integer parameters.

    AIII takes (p, q) with p, q >= 1; CI, BI, DI, DIII take n >= 2;
    EIII and EVII take no parameters.  The ambient dimension, p + q or n,
    is at most MAX_AMBIENT_DIM.
    """

    _fields = ("tag", "p", "q", "n")

    def __init__(self, tag: str, p: int | None = None, q: int | None = None, n: int | None = None):
        super().__init__(tag, p, q, n)
        if tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {tag!r}; expected one of {CASE_TAGS}")
        for name, v in (("p", p), ("q", q), ("n", n)):
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError(f"{tag} parameter {name} must be an integer, got {v!r}")
        if tag == "AIII":
            if n is not None or p is None or q is None:
                raise ValueError("AIII takes parameters p and q only")
            if p < 1 or q < 1:
                raise ValueError(f"AIII needs p, q >= 1, got p={p}, q={q}")
        elif tag in ("CI", "BI", "DI", "DIII"):
            if p is not None or q is not None or n is None:
                raise ValueError(f"{tag} takes the single parameter n")
            if n < 2:
                raise ValueError(f"{tag} needs n >= 2, got n={n}")
        else:
            if p is not None or q is not None or n is not None:
                raise ValueError(f"{tag} takes no parameters")
        dim = p + q if tag == "AIII" else n
        if dim is not None and dim > MAX_AMBIENT_DIM:
            raise ValueError(f"{self.label}: ambient dimension {dim} is over {MAX_AMBIENT_DIM}")

    # Every request hashes and compares its case in the caches keyed on it
    # (build_datum, line_offset and cli's), so these two read the fields
    # directly, as a dataclass's did: Record's pair, through getattr, made
    # each cache hit about 2 us slower (2 cores, CPython 3.11.7).
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tag, self.p, self.q, self.n) == (other.tag, other.p, other.q, other.n)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tag, self.p, self.q, self.n))

    @cached_property
    def label(self) -> str:
        params = ",".join([str(v) for v in (self.p, self.q, self.n) if v is not None])
        return f"{self.tag}({params})" if params else self.tag


# Weights as (vectors, den): integer vectors, each standing for itself over den.
Group = tuple[tuple[IntVector, ...], int]


class ParabolicRootDatum(Record):
    """The full exact root datum of one case instance.

    `_integers` holds the weight groups the view is scaled from and output
    writes the weights from, one per field written (see the module
    docstring).  Only `_derive` attaches it, after the constructor; it
    takes no part in repr or equality, and any other datum, such as a copy
    with some fields changed, reads the class's None: its fields need not
    match any record.
    """

    _fields = (
        "case", "ambient_dim", "simple_roots", "levi_simples", "noncompact_simple",
        "positive_roots", "levi_positive", "nilradical_roots", "rho", "gamma", "zeta", "theta_u",
    )

    _integers: tuple[Group, ...] | None = None

    @cached_property
    def integer_view(self) -> IntegerView:
        """The datum scaled to integers; derived from the fields on first use."""
        return _integer_view(self)


class NilradicalLevel(Record):
    """One nilradical root beta, scaled by D, with its affine level.

    On the scalar line mu = rho + c*zeta the level of beta is
    <mu, beta^v> = a_beta + c*b_beta, where a_beta = a / norm and
    b_beta = b / norm.

    At level k, beta's support term is v(k) = R - k*B, with R = D*rho and
    B = D*beta = `root`; `weyl` derives its Levi walls from these numbers.
    `theta_root` = dot(B, T), for T = D*theta_u, so that
    dot(v(k), T) = theta_rho - k*theta_root with the view's theta_rho.
    T itself is not kept.
    """

    _fields = ("root", "norm", "a", "b", "theta_root")


class IntegerView(Record):
    """A root datum multiplied through by a common denominator D.

    D is the least common denominator of rho, zeta, theta_u, the
    nilradical roots and the Levi positive and simple roots, the weights
    the view scales, so each vector below is D times the datum's weight of
    the same name, in plain integers.  They are scaled from the datum's
    weight groups by one rule, whichever source made the groups (see the
    module docstring).  A root's pairing <v, alpha^v> is then
    2*dot(v, A) / dot(A, A) for the scaled root A, free of D.
    `theta_rho` = dot(R, T) for R = D*rho and T = D*theta_u.  `rho_bound`
    and `root_bound` are one more than the integer square roots of
    dot(R, R) and of the largest nilradical norm dot(B, B), so they exceed
    |R| and every |B|: `jantzen` reads them to bound a walk's coordinates
    and so its packing width.

    The Levi fields serve `weyl`'s descent, and only `rootdata` and `weyl`
    read them.  They index the scaled roots A_t of the datum's
    `levi_positive` and the scaled roots A_s of its `levi_simples`, in
    their order, and hold no vector of their own.  `levi_norms` and
    `simple_norms` hold each dot(A, A), and `rho_levi` and `rho_simple`
    each dot(R, A).  For the s-th Levi simple root A_s, `gram_rows[s]`
    holds (t, dot(A_s, A_t)) over the Levi simple roots A_t that A_s meets
    with a nonzero product, itself included, and `simple_coords[s]` holds
    (i, A_s[i]) over A_s's nonzero coordinates.  `levi_columns[i]` is
    coordinate column i of the Levi positive roots: the pairs (t, A_t[i])
    with A_t[i] nonzero, in t order.  The products dot(B, A) of a vector B
    with all the Levi positive roots, or with all the Levi simple roots,
    are then sums over the columns, or over each A_s's coordinates, of
    B[i] times the entry.  Like each nilradical root's a and b, they are
    derived once per view.

    `words` belongs to `weyl`: per nilradical index, the record
    (singular, entries) of that root's scalar line (its singular levels and
    certified words), built on the root's first support term; its keys are
    the indices only.  Nothing else reads or writes it.
    """

    _fields = (
        "denom", "rho", "zeta", "theta_rho", "rho_bound", "root_bound", "nilradical",
        "levi_norms", "simple_norms", "rho_levi", "rho_simple", "gram_rows", "simple_coords",
        "levi_columns",
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        set_field(self, "words", {})


def case_notes(case: HermitianCase) -> tuple[str, ...]:
    """Degeneracy flags worth surfacing in output metadata."""
    if (case.tag, case.n) == ("DIII", 2):
        return ("ambient algebra so(4) is not simple",)
    # DI(2) takes both simple roots as noncompact (see _simple_system);
    # the first, e1 - e2, is its noncompact_simple.
    if (case.tag, case.n) == ("DI", 2):
        return ("both simple roots are noncompact; the Levi is a torus",)
    return ()


@lru_cache(maxsize=None)
def build_datum(case: HermitianCase) -> ParabolicRootDatum:
    """Build (or fetch the cached) root datum for a case, checked as it is derived."""
    return _derive(case)


def scalar_parameter_weight(datum: ParabolicRootDatum, c) -> Weight:
    """The scalar highest weight c * zeta; a float or a bool c raises ValueError."""
    return scale(c, datum.zeta)


# ---------------------------------------------------------------------------
# per-case construction


def _root(dim: int, coords: dict[int, int]) -> IntVector:
    """The doubled root with coords[i] at coordinate e_i (1-based) and 0 elsewhere."""
    return tuple([coords.get(j, 0) for j in range(1, dim + 1)])


def _difference(i: int, j: int, dim: int) -> IntVector:
    """e_i - e_j, doubled."""
    return _root(dim, {i: 2, j: -2})


def _e6_simples() -> tuple[IntVector, ...]:
    """E6's simple roots in R^8, doubled."""
    alpha1 = (1,) + (-1,) * 6 + (1,)
    alpha2 = _root(8, {1: 2, 2: 2})
    rest = tuple(_difference(i - 1, i - 2, 8) for i in range(3, 7))
    return (alpha1, alpha2) + rest


def _simple_system(case: HermitianCase) -> tuple[int, tuple[IntVector, ...], tuple[int, ...]]:
    """Ambient dimension, ordered doubled simple roots and noncompact simple indices.

    The first noncompact index names the datum's noncompact simple root.
    """
    if case.tag == "EIII":
        return 8, _e6_simples(), (0,)
    if case.tag == "EVII":
        return 8, _e6_simples() + (_difference(6, 5, 8),), (6,)
    dim = case.p + case.q if case.tag == "AIII" else case.n
    chain = tuple(_difference(i, i + 1, dim) for i in range(1, dim))
    if case.tag == "AIII":
        return dim, chain, (case.p - 1,)
    if case.tag == "CI":
        return dim, chain + (_root(dim, {dim: 4}),), (dim - 1,)
    if case.tag == "BI":
        return dim, chain + (_root(dim, {dim: 2}),), (0,)
    simples = chain + (_root(dim, {dim - 1: 2, dim: 2}),)
    if case.tag == "DIII":
        return dim, simples, (dim - 1,)
    # so(4) splits into two sl(2) factors, so DI(2) puts both simple roots
    # in the nilradical.
    return dim, simples, ((0, 1) if dim == 2 else (0,))


def _need(case: HermitianCase, cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantError(f"{case.label}: {msg}")


def _orbit(twice: tuple[IntVector, ...], cartan: list[list[int]]) -> dict[IntVector, IntVector]:
    """The positive roots, as simple-root coefficient vector -> doubled vector.

    `twice` holds the doubled simple roots and cartan[i][j] is
    <alpha_j, alpha_i^v>.  The simple roots come first, in their order,
    then the other roots in the order the walk meets them: it takes the
    last root found first, and from it tries i in index order.  The walk
    stops at the first repeated root, so on a dependent system two
    coefficient vectors share a doubled vector.
    """
    # Walk upward only: s_i takes b to b - k*e_i for k = <b, alpha_i^v>, and
    # is tried only where k < 0, so the image is never negative; the module
    # docstring says why that reaches every root.  Each coefficient vector
    # carries its pairings <b, alpha_m^v> over all m.  Those of e_i are
    # Cartan column i, and b - k*e_i pairs as b's pairings minus k times
    # that column, so no pairing is ever recomputed.  A move changes the
    # doubled vector only on twice[i]'s nonzero coordinates (at most 2 in
    # the classical families, 8 for E's alpha_1) and the pairings only on
    # column i's nonzero entries (at most 3), so each is kept as (index,
    # value) pairs.  The walk stops at the first repeated root: on a
    # dependent simple system it would never end.
    columns = list(zip(*cartan))
    coords = [[(j, x) for j, x in enumerate(a) if x] for a in twice]
    entries = [[(m, c) for m, c in enumerate(column) if c] for column in columns]
    indices = range(len(twice))
    units = [tuple(int(i == j) for j in indices) for i in indices]
    doubled = dict(zip(units, twice))
    pairs = dict(zip(units, map(list, columns)))
    found = set(twice)
    frontier = list(units)
    while frontier and len(found) == len(doubled):
        beta = frontier.pop()
        b2, p = doubled[beta], pairs[beta]
        for i, k in enumerate(p):
            if k < 0:
                image = list(beta)
                image[i] -= k
                image = tuple(image)
                if image not in doubled:
                    w = list(b2)
                    for j, x in coords[i]:
                        w[j] -= k * x
                    q = p.copy()
                    for m, c in entries[i]:
                        q[m] -= k * c
                    doubled[image] = w = tuple(w)
                    pairs[image] = q
                    found.add(w)
                    frontier.append(image)
    return doubled


def _derive(case: HermitianCase) -> ParabolicRootDatum:
    dim, twice, noncompact = _simple_system(case)
    need = partial(_need, case)
    # The simple roots come doubled, so the datum is derived on integers:
    # doubled coordinates and simple-root coefficients.
    need(all(len(a) == dim for a in twice), "weight of wrong dimension")
    # The crystallographic check below divides by each dot(a, a).
    need(all(any(a) for a in twice), "zero simple root")
    # Each Gram entry sums x*y over the coordinates where both simple roots
    # are nonzero.  Every simple root but E's alpha_1 is nonzero on at most
    # 2 coordinates, so each coordinate meets only a few of them.
    gram = [[0] * len(twice) for _ in twice]
    for column in zip(*twice):
        shared = [(a, x) for a, x in enumerate(column) if x]
        for a, x in shared:
            row = gram[a]
            for b, y in shared:
                row[b] += x * y
    need(
        all(2 * g % row[i] == 0 for i, row in enumerate(gram) for g in row),
        "simple system is not crystallographic",
    )
    # cartan[i][j] = <alpha_j, alpha_i^v>, so <b, alpha_i^v> = dot(b, cartan[i])
    cartan = [[2 * g // row[i] for g in row] for i, row in enumerate(gram)]
    doubled = _orbit(twice, cartan)
    need(len(set(doubled.values())) == len(doubled), "duplicate positive roots")

    degenerate = (case.tag, case.n) in _D2_DEGENERATE
    # The simple roots are distinct, so the Levi keeps every simple root but
    # the noncompact one exactly when the noncompact indices name one root.
    need(
        degenerate or set(noncompact) == {noncompact[0]},
        "Levi simples are not the simple system minus the noncompact root",
    )
    nil_coeffs = [c for c in doubled if any(c[i] > 0 for i in noncompact)]
    levi_coeffs = [c for c in doubled if not any(c[i] > 0 for i in noncompact)]
    # Greatest height; only DI(2) ties, and takes the larger root e1 + e2.
    top = max(nil_coeffs, key=lambda c: (sum(c), doubled[c]))
    # Noncompact coefficient 1 throughout: no two nilradical roots sum to a root.
    need(
        all(sum(c[i] for i in noncompact) == 1 for c in nil_coeffs),
        "nilradical is not abelian",
    )
    need(
        degenerate or all(all(map(operator.le, c, top)) for c in doubled),
        "gamma is not the highest root",
    )

    # zeta and theta_u are multiples of nil2, twice the nilradical's sum,
    # which the Levi Weyl group fixes.  zeta is positive on the nilradical
    # exactly when every dot(nil2, beta) is: those products sum to
    # dot(nil2, nil2) >= 0, and zeta divides each by the one at gamma.
    nil2 = tuple(map(sum, zip(*(doubled[c] for c in nil_coeffs))))
    need(all(dot(nil2, doubled[c]) == 0 for c in levi_coeffs), "zeta not orthogonal to the Levi")
    need(all(dot(nil2, doubled[c]) > 0 for c in nil_coeffs), "zeta not positive on the nilradical")
    # E6 and E7 live in the subspace of R^8 orthogonal to these vectors; rho,
    # gamma and zeta are combinations of the positive roots.
    walls = {"EIII": ((0,) * 6 + (1, 1), (0,) * 5 + (1, -1, 0)), "EVII": ((0,) * 6 + (1, 1),)}
    need(
        all(dot(w, b) == 0 for w in walls.get(case.tag, ()) for b in doubled.values()),
        "weight leaves the defining subspace",
    )

    # One Fraction per distinct doubled coordinate.  Halving is monotone, so
    # sorting the doubled vectors gives the lexicographic order of the roots,
    # which keeps every downstream listing (supports, certificates, JSON
    # dumps) byte-stable.
    halves = {x: Fraction(x, 2) for x in set().union(*doubled.values())}
    roots = {w: tuple(map(halves.__getitem__, w)) for w in doubled.values()}
    nil = {doubled[c] for c in nil_coeffs}
    order = sorted(roots)
    nil_order = tuple([w for w in order if w in nil])
    levi_order = tuple([w for w in order if w not in nil])
    levi_twice = tuple([w for i, w in enumerate(twice) if i not in noncompact])

    def along_nil(b: IntVector) -> Group:
        # The multiple of the nilradical's sum with <., beta^v> = 1, for the
        # root beta with doubled vector b: nil2 * dot(b, b) / (4*dot(nil2, b)).
        norm = dot(b, b)
        return (tuple([x * norm for x in nil2]),), 4 * dot(nil2, b)

    # rho is half the sum of the positive roots: 4*rho sums their doubles
    rho = (tuple(map(sum, zip(*doubled.values()))),), 4
    zeta, theta_u = along_nil(doubled[top]), along_nil(twice[noncompact[0]])
    simples = tuple(map(roots.__getitem__, twice))
    datum = ParabolicRootDatum(
        case=case,
        ambient_dim=dim,
        simple_roots=simples,
        levi_simples=tuple(map(roots.__getitem__, levi_twice)),
        noncompact_simple=simples[noncompact[0]],
        positive_roots=tuple(map(roots.__getitem__, order)),
        levi_positive=tuple(map(roots.__getitem__, levi_order)),
        nilradical_roots=tuple(map(roots.__getitem__, nil_order)),
        rho=_weight(rho),
        gamma=roots[doubled[top]],
        zeta=_weight(zeta),
        theta_u=_weight(theta_u),
    )
    # the six groups the view scales, then the other root fields written
    groups = rho, zeta, theta_u, (nil_order, 2), (levi_order, 2), (levi_twice, 2)
    groups += (twice, 2), ((twice[noncompact[0]],), 2), ((doubled[top],), 2)
    set_field(datum, "_integers", groups)
    return datum


def _weight(group: Group) -> Weight:
    """The one weight of a group."""
    (v,), den = group
    return tuple([Fraction(x, den) for x in v])


def _group(weights: tuple[Weight, ...]) -> Group:
    """Weights as integer vectors over the lcm of their denominators."""
    den = math.lcm(*[x.denominator for w in weights for x in w])
    return tuple([tuple([x.numerator * (den // x.denominator) for x in w]) for w in weights]), den


def _integer_view(d: ParabolicRootDatum) -> IntegerView:
    """The datum's view, scaled from its first six weight groups: `_derive`'s
    integers when the datum holds them (`ParabolicRootDatum._integers`), and
    each of its `Fraction` fields over its own lcm when not."""
    groups = d._integers[:6] if d._integers else [
        _group(w)
        for w in ((d.rho,), (d.zeta,), (d.theta_u,), d.nilradical_roots, d.levi_positive, d.levi_simples)
    ]
    # D is the lcm of the groups' denominators in lowest terms.  A group is
    # brought to lowest terms, by the gcd of its denominator and its
    # coordinates, only when its denominator does not divide the lcm so far:
    # when it does, the lcm is the same either way.  Each group then scales
    # by D over its denominator, so every vector is D times its weight.
    denom, cuts = 1, []
    for vectors, den in groups:
        cut = 1 if denom % den == 0 else math.gcd(den, *chain.from_iterable(vectors))
        denom = math.lcm(denom, den // cut)
        cuts.append(cut)
    (rho,), (zeta,), (theta_u,), nilradical, levi_positive, simples = [
        _scaled(vectors, denom * cut // den, cut) for (vectors, den), cut in zip(groups, cuts)
    ]
    return _view(denom, rho, zeta, theta_u, nilradical, levi_positive, simples)


def _scaled(vectors: tuple[IntVector, ...], num: int, den: int) -> tuple[IntVector, ...]:
    """The vectors times num / den, which takes each to integers."""
    if num == den:
        return vectors
    return tuple([tuple([x * num // den for x in v]) for v in vectors])


def _view(
    denom: int, rho: IntVector, zeta: IntVector, theta_u: IntVector, nilradical, levi_positive, simples
) -> IntegerView:
    """The view of the weights scaled by denom, given as integer vectors: the
    nilradical roots' levels, the Levi norms and dots, Gram rows and columns."""

    def level(root):
        a, b = 2 * dot(rho, root), 2 * dot(zeta, root)
        return NilradicalLevel(root, dot(root, root), a, b, dot(root, theta_u))

    nilradical = tuple(map(level, nilradical))
    return IntegerView(
        denom=denom,
        rho=rho,
        zeta=zeta,
        theta_rho=dot(rho, theta_u),
        rho_bound=math.isqrt(dot(rho, rho)) + 1,
        root_bound=math.isqrt(max([nil.norm for nil in nilradical])) + 1,
        nilradical=nilradical,
        levi_norms=tuple([dot(a, a) for a in levi_positive]),
        simple_norms=tuple([dot(a, a) for a in simples]),
        rho_levi=tuple([dot(rho, a) for a in levi_positive]),
        rho_simple=tuple([dot(rho, a) for a in simples]),
        gram_rows=tuple(
            tuple([(t, g) for t, b in enumerate(simples) if (g := dot(a, b))]) for a in simples
        ),
        simple_coords=tuple(tuple([(i, x) for i, x in enumerate(a) if x]) for a in simples),
        levi_columns=tuple(
            tuple([(t, a[i]) for t, a in enumerate(levi_positive) if a[i]])
            for i in range(len(rho))
        ),
    )
