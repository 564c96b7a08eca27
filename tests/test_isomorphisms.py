"""Verdicts that do not depend on how a case is realized.

Two realizations of one Hermitian pair, or one realization moved by an
orthogonal map of its coordinates, must decide every scalar parameter c
alike.  Roots, representatives and the order of the terms change with the
realization; what does not is each point's invariant tuple: the verdict,
the route, the support size, the number of singular terms, the sorted
(net sign, class size) pairs and the sorted descent lengths.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from scalarverma import HermitianCase, build_datum, classify_scalar, rootdata
from scalarverma.jantzen import REDUCIBLE


def invariants(datum, c):
    got = classify_scalar(datum, c)
    regular = [t.chamber for t in got.terms if t.chamber.is_regular]
    return (
        got.verdict,
        got.route,
        len(got.terms),
        len(got.terms) - len(regular),
        sorted((g.net_sign, len(g.members)) for g in got.certificate),
        sorted(chamber.steps for chamber in regular),
    )


def grid(step):
    """c on the given step over [-15, 8)."""
    return [m * step for m in range(-15 // step, 8 // step)]


AIII = lambda p, q: HermitianCase("AIII", p=p, q=q)
ISOMORPHIC = [
    (HermitianCase("CI", n=2), HermitianCase("BI", n=2)),  # sp(4, R) = so(2, 3)
    (AIII(2, 2), HermitianCase("DI", n=3)),  # su(2, 2) = so(2, 4)
    (AIII(3, 1), HermitianCase("DIII", n=3)),  # su(3, 1) = so*(6)
    (AIII(1, 3), HermitianCase("DIII", n=3)),
    (HermitianCase("DIII", n=4), HermitianCase("DI", n=4)),  # so*(8) = so(2, 6)
] + [(AIII(p, s - p), AIII(s - p, p)) for s in range(3, 11) for p in range(1, (s + 1) // 2)]


@pytest.mark.parametrize("pair", ISOMORPHIC, ids=[f"{a.label}~{b.label}" for a, b in ISOMORPHIC])
def test_isomorphic_cases_decide_alike(pair):
    first, second = map(build_datum, pair)
    reducible = 0
    for c in grid(Fraction(1, 12)):
        got = invariants(first, c)
        assert got == invariants(second, c), c
        reducible += got[0] == REDUCIBLE
    assert reducible


AIII_HIGH = [(AIII(p, s - p), AIII(s - p, p)) for s in range(11, 21) for p in range(1, (s + 1) // 2)]


@pytest.mark.slow
@pytest.mark.parametrize("pair", AIII_HIGH, ids=[f"{a.label}~{b.label}" for a, b in AIII_HIGH])
def test_high_rank_aiii_pairs_decide_alike(pair):
    test_isomorphic_cases_decide_alike(pair)


MOVED = [AIII(2, 3), AIII(3, 3)] + [
    HermitianCase(tag, n=n) for tag, n in (("CI", 4), ("BI", 4), ("DI", 4), ("DIII", 5))
]


@pytest.mark.parametrize("case", MOVED, ids=[c.label for c in MOVED])
def test_signed_permutation_of_coordinates_decides_alike(case, monkeypatch):
    # EIII and EVII are left out: _derive checks their roots against the
    # fixed coordinates of the subspace that realizes E6 or E7.
    base = build_datum(case)
    want = [invariants(base, c) for c in grid(Fraction(1, 6))]
    dim, simples, noncompact = rootdata._simple_system(case)
    rng = random.Random(7)
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    moved = tuple(tuple(s * a[i] for s, i in zip(signs, perm)) for a in simples)
    monkeypatch.setattr(rootdata, "_simple_system", lambda case: (dim, moved, noncompact))
    datum = rootdata._derive(case)
    assert datum.rho != base.rho
    assert [invariants(datum, c) for c in grid(Fraction(1, 6))] == want
