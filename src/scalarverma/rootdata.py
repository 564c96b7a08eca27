"""Case tags and parabolic root data for the seven Hermitian families.

Each case fixes a coordinate realization of a simple root system together
with a parabolic of abelian type: an ordered simple system, the
noncompact simple root, the Levi and nilradical halves of the positive
roots, the half-sum rho, the highest nilradical root gamma, and the scalar
direction zeta (orthogonal to the Levi, normalized against gamma).

Each family writes out only its simple roots and noncompact simple indices;
every other field is derived from them.  The positive roots are the
nonnegative simple-root coefficient vectors in the orbit of the simple roots
under the simple reflections, each carried with its doubled coordinates.
`_derive` checks the datum as it builds it, in integers on those vectors:

- every simple root has the ambient dimension, lies in (1/2)Z^dim and is
  nonzero;
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
immutable tuple, safe to share across threads.  Each datum also derives, on
first use, an integer view of itself (`IntegerView`) for the c-free chamber
arithmetic of the oracle.  The view holds only the datum's own scaled
numbers, plus one dict in which `weyl` keeps a record per root of that
root's scalar line: its singular levels and its certified words, built
once the root's Levi integrality is checked.  `weyl` replaces a root's
immutable record whole, so concurrent fills at worst drop an entry and
repeat work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Iterable

from .errors import InvariantError
from .ratvec import Weight, add, dot, scale, sub, weight

CASE_TAGS = ("AIII", "CI", "BI", "DI", "DIII", "EIII", "EVII")

# Largest ambient dimension (p + q for AIII, n otherwise): the highest rank
# perfbench runs.  One CI(20) classify takes 0.23-0.26 s from the command
# line, 0.06 s of it building the datum; in-process, each later CI(20)
# point with all 210 nilradical roots in its support takes 0.75-0.77 ms to
# decide and 2.8 ms with its terms read (2 cores, CPython 3.11.7, fast phase).
MAX_AMBIENT_DIM = 20

IntVector = tuple[int, ...]

# Tags whose rank-2 orthogonal instance degenerates: so(4) = sl(2) + sl(2),
# so the D2 picture has no highest root and (for DI) an empty Levi system.
_D2_DEGENERATE = {("DI", 2), ("DIII", 2)}


@dataclass(frozen=True)
class HermitianCase:
    """A case tag plus its integer parameters.

    AIII takes (p, q) with p, q >= 1; CI, BI, DI, DIII take n >= 2;
    EIII and EVII take no parameters.  The ambient dimension, p + q or n,
    is at most MAX_AMBIENT_DIM.
    """

    tag: str
    p: int | None = None
    q: int | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.tag!r}; expected one of {CASE_TAGS}")
        for name, v in (("p", self.p), ("q", self.q), ("n", self.n)):
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError(f"{self.tag} parameter {name} must be an integer, got {v!r}")
        if self.tag == "AIII":
            if self.n is not None or self.p is None or self.q is None:
                raise ValueError("AIII takes parameters p and q only")
            if self.p < 1 or self.q < 1:
                raise ValueError(f"AIII needs p, q >= 1, got p={self.p}, q={self.q}")
        elif self.tag in ("CI", "BI", "DI", "DIII"):
            if self.p is not None or self.q is not None or self.n is None:
                raise ValueError(f"{self.tag} takes the single parameter n")
            if self.n < 2:
                raise ValueError(f"{self.tag} needs n >= 2, got n={self.n}")
        else:
            if self.p is not None or self.q is not None or self.n is not None:
                raise ValueError(f"{self.tag} takes no parameters")
        dim = self.p + self.q if self.tag == "AIII" else self.n
        if dim is not None and dim > MAX_AMBIENT_DIM:
            raise ValueError(f"{self.label}: ambient dimension {dim} is over {MAX_AMBIENT_DIM}")

    @cached_property
    def label(self) -> str:
        params = ",".join([str(v) for v in (self.p, self.q, self.n) if v is not None])
        return f"{self.tag}({params})" if params else self.tag


@dataclass(frozen=True)
class ParabolicRootDatum:
    """The full exact root datum of one case instance."""

    case: HermitianCase
    ambient_dim: int
    simple_roots: tuple[Weight, ...]
    levi_simples: tuple[Weight, ...]
    noncompact_simple: Weight
    positive_roots: tuple[Weight, ...]
    levi_positive: tuple[Weight, ...]
    nilradical_roots: tuple[Weight, ...]
    rho: Weight
    gamma: Weight
    zeta: Weight
    theta_u: Weight

    @cached_property
    def integer_view(self) -> IntegerView:
        """The datum scaled to integers; derived from the fields on first use."""
        return _integer_view(self)


@dataclass(frozen=True)
class NilradicalLevel:
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

    root: IntVector
    norm: int
    a: int
    b: int
    theta_root: int


@dataclass(frozen=True)
class IntegerView:
    """A root datum multiplied through by a common denominator D.

    D clears every denominator of rho, zeta, theta_u and the positive
    roots, so each vector below is D times the datum's weight of the same
    name, in plain integers.  A root's pairing <v, alpha^v> is then
    2*dot(v, A) / dot(A, A) for the scaled root A, free of D.
    `theta_rho` = dot(R, T) for R = D*rho and T = D*theta_u.

    `words` belongs to `weyl`: per nilradical index, the record
    (singular, entries) of that root's scalar line (its singular levels and
    certified words), built on the root's first support term.  Nothing
    else reads or writes it.
    """

    denom: int
    rho: IntVector
    zeta: IntVector
    theta_rho: int
    nilradical: tuple[NilradicalLevel, ...]
    levi_positive: tuple[tuple[IntVector, int], ...]
    levi_simples: tuple[tuple[IntVector, int], ...]
    words: dict = field(default_factory=dict, compare=False, repr=False)


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


def _e(i: int, dim: int) -> Weight:
    return tuple(Fraction(1 if j == i else 0) for j in range(1, dim + 1))


def _sorted(roots: Iterable[Weight]) -> tuple[Weight, ...]:
    # Fixed lexicographic coordinate order keeps every downstream listing
    # (supports, certificates, JSON dumps) byte-stable.
    return tuple(sorted(roots))


def _e6_simples() -> tuple[Weight, ...]:
    h = Fraction(1, 2)
    alpha1 = (h, -h, -h, -h, -h, -h, -h, h)
    alpha2 = weight((1, 1, 0, 0, 0, 0, 0, 0))
    rest = tuple(sub(_e(i - 1, 8), _e(i - 2, 8)) for i in range(3, 7))
    return (alpha1, alpha2) + rest


def _simple_system(case: HermitianCase) -> tuple[int, tuple[Weight, ...], tuple[int, ...]]:
    """Ambient dimension, ordered simple roots and noncompact simple indices.

    The first noncompact index names the datum's noncompact simple root.
    """
    if case.tag == "EIII":
        return 8, _e6_simples(), (0,)
    if case.tag == "EVII":
        return 8, _e6_simples() + (sub(_e(6, 8), _e(5, 8)),), (6,)
    dim = case.p + case.q if case.tag == "AIII" else case.n
    e = lambda i: _e(i, dim)
    chain = tuple(sub(e(i), e(i + 1)) for i in range(1, dim))
    if case.tag == "AIII":
        return dim, chain, (case.p - 1,)
    if case.tag == "CI":
        return dim, chain + (scale(2, e(dim)),), (dim - 1,)
    if case.tag == "BI":
        return dim, chain + (e(dim),), (0,)
    simples = chain + (add(e(dim - 1), e(dim)),)
    if case.tag == "DIII":
        return dim, simples, (dim - 1,)
    # so(4) splits into two sl(2) factors, so DI(2) puts both simple roots
    # in the nilradical.
    return dim, simples, ((0, 1) if dim == 2 else (0,))


def _need(case: HermitianCase, cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantError(f"{case.label}: {msg}")


def _derive(case: HermitianCase) -> ParabolicRootDatum:
    dim, delta, noncompact = _simple_system(case)
    need = partial(_need, case)
    # Every root of these realizations lies in (1/2)Z^dim, so the orbit
    # runs on integers: doubled coordinates and simple-root coefficients.
    twice = [tuple(2 * x for x in a) for a in delta]
    need(all(len(a) == dim for a in twice), "weight of wrong dimension")
    need(all(x.denominator == 1 for a in twice for x in a), "simple root outside (1/2)Z^dim")
    twice = [tuple(map(int, a)) for a in twice]
    # The crystallographic check below divides by each dot(a, a).
    need(all(any(a) for a in twice), "zero simple root")
    gram = [[dot(a, b) for b in twice] for a in twice]
    need(
        all(2 * g % row[i] == 0 for i, row in enumerate(gram) for g in row),
        "simple system is not crystallographic",
    )
    # cartan[i][j] = <alpha_j, alpha_i^v>, so <b, alpha_i^v> = dot(b, cartan[i])
    cartan = [[2 * g // row[i] for g in row] for i, row in enumerate(gram)]

    # Walk the orbit under b -> b - <b, alpha_i^v> e_i, keeping nonnegative
    # vectors: only s_i(alpha_i) turns negative, and every positive root
    # above height 1 is some s_i of a lower one.  The walk stops at the first
    # repeated root: on a dependent simple system it would never end.
    units = [tuple(int(i == j) for j in range(len(delta))) for i in range(len(delta))]
    doubled = dict(zip(units, twice))
    found = set(twice)
    frontier = list(units)
    while frontier and len(found) == len(doubled):
        beta = frontier.pop()
        for i, row in enumerate(cartan):
            k = dot(beta, row)
            image = beta[:i] + (beta[i] - k,) + beta[i + 1 :]
            if image[i] >= 0 and image not in doubled:
                doubled[image] = tuple(x - k * y for x, y in zip(doubled[beta], twice[i]))
                found.add(doubled[image])
                frontier.append(image)
    need(len(found) == len(doubled), "duplicate positive roots")

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
        degenerate or all(x <= y for c in doubled for x, y in zip(c, top)),
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

    halves = {x: Fraction(x, 2) for w in doubled.values() for x in w}
    roots = {c: tuple(halves[x] for x in w) for c, w in doubled.items()}

    def along_nil(b: IntVector) -> Weight:
        # The multiple of the nilradical's sum with <., beta^v> = 1, for the
        # root beta with doubled vector b.
        den = 4 * dot(nil2, b)
        return tuple(Fraction(x * dot(b, b), den) for x in nil2)

    return ParabolicRootDatum(
        case=case,
        ambient_dim=dim,
        simple_roots=tuple(roots[c] for c in units),
        levi_simples=tuple(roots[c] for c in units if c in levi_coeffs),
        noncompact_simple=roots[units[noncompact[0]]],
        positive_roots=_sorted(roots.values()),
        levi_positive=_sorted(roots[c] for c in levi_coeffs),
        nilradical_roots=_sorted(roots[c] for c in nil_coeffs),
        rho=tuple(Fraction(sum(col), 4) for col in zip(*doubled.values())),
        gamma=roots[top],
        zeta=along_nil(doubled[top]),
        theta_u=along_nil(twice[noncompact[0]]),
    )


def _integer_view(d: ParabolicRootDatum) -> IntegerView:
    weights = (d.rho, d.zeta, d.theta_u) + d.positive_roots
    denom = math.lcm(*(x.denominator for w in weights for x in w))
    ints = lambda w: tuple(x.numerator * (denom // x.denominator) for x in w)

    def with_norm(w):
        v = ints(w)
        return v, dot(v, v)

    rho, zeta, theta_u = ints(d.rho), ints(d.zeta), ints(d.theta_u)

    def level(beta):
        root, norm = with_norm(beta)
        a, b = 2 * dot(rho, root), 2 * dot(zeta, root)
        return NilradicalLevel(root, norm, a, b, dot(root, theta_u))

    return IntegerView(
        denom=denom,
        rho=rho,
        zeta=zeta,
        theta_rho=dot(rho, theta_u),
        nilradical=tuple(map(level, d.nilradical_roots)),
        levi_positive=tuple(with_norm(a) for a in d.levi_positive),
        levi_simples=tuple(with_norm(a) for a in d.levi_simples),
    )
