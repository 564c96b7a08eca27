"""Levi chamber normalization.

A weight is either on a Levi reflection wall (Singular) or can be pushed
into the closed dominant chamber of the Levi by a finite word of simple
reflections (Regular, with a canonical representative and the parity of
the word).  Two regular weights lie in one Levi orbit exactly when their
representatives coincide, which is what the sign bookkeeping downstream
rests on.

`normalize` works on exact rational weights: a wall scan over every Levi
positive root, then the first-negative descent.

The module also owns the scalar line.  The oracle works on the c-free
terms v(k) = R - k*B, for R = D*rho, B = D*beta and a positive integer
level k, because Levi reflections fix zeta and so the chamber of
rho + c*zeta - k*beta is that of rho - k*beta, shifted by c*zeta.
`_line_chamber(view, j, k)` decides the term of the j-th nilradical root at
level k and forms v only when it must descend.  On a root's first term it
builds the root's record (singular, entries) in the view's `words` dict:
the levels at which the line meets a Levi wall (Singular) and an empty
tuple of entries.  Levi integrality is a property of the datum, not of the
level: every <rho, alpha^v> and <beta, alpha^v> over a Levi root alpha is
an integer, so every term is Levi integral and each Levi reflection acts on
R and B in exact integers.  The record is built only after that is checked
for every Levi root, and a root where it fails raises InvariantError; the
record reads the root's dots with the Levi roots off the view's coordinate
columns, with no dot of its own.  Off the walls, a descent's word w gives
the representative w*R - k*w*B, whose pairing with each Levi simple root
is affine in k; the levels at which all of them are positive form an
integer interval lo..hi, and at exactly those levels w*v(k) is the
dominant point of v(k)'s orbit.  Each entry is (lo, hi, w*R, w*B, w), and
a term is served by the entry whose lo..hi holds its level, which
certifies the representative at the term's own level; a level no entry
holds is descended afresh and its interval stored.  The
descent is `normalize`'s first-negative rule, step bound and errors, run
on v and w*B together in integers, with no wall scan: R = D*rho is
strictly Levi dominant, so R - k*B meets the wall of a Levi root A only
at k = dot(R, A) / dot(B, A), and the record's singular levels already
hold every such level.  The descent tracks the pairings d_s = dot(v, A_s)
and q_s = dot(w*B, A_s) with each Levi simple root A_s, started from the
view's dot(R, A_s) and, for each A_s, the sum of B[i] * A_s[i] over A_s's
nonzero coordinates i.  A reflection in A_s moves v and w*B only on A_s's
nonzero coordinates, and d and q only on A_s's row of nonzero Gram entries
dot(A_s, A_t), both read from the view; the interval lo..hi is read off d
and q.  So the module computes no dot of two whole vectors.  Every v(k)
with k in lo..hi lies in one open chamber, and the first-negative
descent reads only the chamber, so a served word is the word a fresh
descent would find.  The Weyl group acts simply transitively on
chambers, so no two words share a level and a root's entries are
disjoint.  Each fill replaces the root's record whole.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvariantError
from .ratvec import Weight, inner, pairing, reflect
from .rootdata import IntegerView, IntVector, ParabolicRootDatum


@dataclass(frozen=True)
class ChamberForm:
    """Outcome of normalizing one weight against the Levi chamber.

    `rep` is the dominant representative, or None on a wall (Singular);
    `steps` is the length of the normalizing word, 0 on a wall.
    """

    rep: Weight | None
    steps: int

    @property
    def is_regular(self) -> bool:
        return self.rep is not None

    @property
    def parity(self) -> int | None:
        """The word length mod 2; None on a wall."""
        return self.steps % 2 if self.is_regular else None

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
            return ChamberForm(None, 0)

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
            return ChamberForm(cur, steps)
        cur = reflect(cur, descent)
        steps += 1
        if steps > bound:
            raise InvariantError("chamber descent exceeded the positive-root bound")


def _line_record(view: IntegerView, root: IntVector) -> tuple[frozenset[int], tuple]:
    """A new record (singular, ()) of the line R - k*B, for B = root.

    The line meets the wall of a scaled Levi positive root A at
    k = dot(R, A) / dot(B, A); `singular` holds the positive integers among
    those levels.  Raises InvariantError unless 2*dot(R, A) and 2*dot(B, A)
    are multiples of dot(A, A) for every A, so that every term is Levi
    integral and each Levi reflection acts on R and B in exact integers.
    Every dot(B, A) comes at once, in the order of the datum's
    `levi_positive`: each nonzero coordinate B[i] adds B[i] * A[i] to the
    dot of each A that has a nonzero entry in the view's coordinate column
    i (`levi_columns`).  dot(R, A) is read from `rho_levi`, and dot(A, A)
    from `levi_norms`.
    """
    dots = [0] * len(view.rho_levi)
    for x, column in zip(root, view.levi_columns):
        if x:
            for t, a in column:
                dots[t] += x * a
    singular = set()
    for n, r, b in zip(view.levi_norms, view.rho_levi, dots):
        if 2 * r % n or 2 * b % n:
            raise InvariantError("support term is not Levi integral")
        if r * b > 0 and r % b == 0:
            singular.add(r // b)
    return frozenset(singular), ()


def _line_chamber(view: IntegerView, j: int, k: int) -> tuple[IntVector | None, tuple[int, ...]]:
    """The chamber of the term v = R - k*B on the scalar line, in integers.

    B is the scaled nilradical root view.nilradical[j], R = view.rho and k
    is a positive integer.  Returns (w*v, w), the dominant point of v's
    Levi orbit and the word, as indices into the Levi simple roots, of the
    first-negative descent that reaches it; or (None, ()) on a wall.
    Root j's record in view.words, built on its first term, holds its
    singular levels and its entries: disjoint (lo, hi, w*R, w*B, w), sorted
    by lo, each filled by one descent.  A singular level is Singular.  The
    entry with lo <= k <= hi serves any other level: w*R - k*w*B pairs
    positively with every Levi simple root exactly at the levels lo..hi,
    which proves it is the dominant point of v's orbit and w its descent's
    word.  A level no entry serves is descended afresh, and its interval
    added.  R is strictly Levi dominant, so the singular levels are every
    level at which the line meets a Levi wall, and the descent runs no wall
    scan of its own: a wall it meets, or a word longer than the number of
    Levi positive roots, can come only from a broken datum and raises
    InvariantError.  The descent keeps v's and w*B's pairings d and q with
    the Levi simple roots.  A reflection in A_s, by c = 2*d_s / |A_s|^2 on
    v and cb = 2*q_s / |A_s|^2 on w*B, subtracts c and cb times A_s's Gram
    row from d and q and times A_s from v and w*B, each on its nonzero
    entries only.  At the end w*R pairs with A_s as d_s + k*q_s, so the
    interval needs no dot.
    """
    nil = view.nilradical[j]
    record = view.words.get(j)
    if record is None:
        record = view.words[j] = _line_record(view, nil.root)
    singular, entries = record
    if k in singular:
        return None, ()
    i = bisect_right(entries, k, key=itemgetter(0))
    if i and k <= entries[i - 1][1]:
        _, _, wr, wb, word = entries[i - 1]
        return tuple([r - k * b for r, b in zip(wr, wb)]), word
    # Descend v = R - k*B and w*B together, so that w*R = v + k*w*B at the end.
    norms, rows, coords = view.simple_norms, view.gram_rows, view.simple_coords
    v, wb = [r - k * b for r, b in zip(view.rho, nil.root)], list(nil.root)
    q = [sum([nil.root[i] * x for i, x in coords_s]) for coords_s in coords]
    d = [r - k * b for r, b in zip(view.rho_simple, q)]
    word = []
    bound = len(view.levi_norms)
    while True:
        for s, ds in enumerate(d):
            if ds <= 0:
                break
        else:
            break
        if ds == 0:
            raise InvariantError("wall hit during descent after a clean wall scan")
        norm = norms[s]
        c, cb = 2 * ds // norm, 2 * q[s] // norm
        for t, g in rows[s]:
            d[t] -= c * g
            q[t] -= cb * g
        for m, x in coords[s]:
            v[m] -= c * x
            wb[m] -= cb * x
        word.append(s)
        if len(word) > bound:
            raise InvariantError("chamber descent exceeded the positive-root bound")
    v, wb, word = tuple(v), tuple(wb), tuple(word)
    wr = tuple([x + k * b for x, b in zip(v, wb)])
    # dot(wr - k*wb, A_s) = p - k*q_s, for p = d_s + k*q_s, is positive for
    # k <= (p - 1)/q_s when q_s > 0 and for k > p/q_s when q_s < 0; with
    # q_s = 0 it is d_s, positive because v is dominant.
    lo, hi = -math.inf, math.inf
    for ds, qs in zip(d, q):
        p = ds + k * qs
        if qs > 0:
            hi = min(hi, (p - 1) // qs)
        elif qs < 0:
            lo = max(lo, -p // -qs + 1)
    view.words[j] = singular, entries[:i] + ((lo, hi, wr, wb, word),) + entries[i:]
    return v, word
