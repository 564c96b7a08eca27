"""Shared helpers for the scalarverma test suite.

Besides fixtures this module hosts small independent reimplementations
(a random-descent chamber normalizer, random weight and word builders)
used to cross-check the library's deterministic algorithms.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import pytest

from scalarverma import HermitianCase, build_datum
from scalarverma.ehw import (
    INDETERMINATE,
    KNOWN_REDUCIBLE,
    KNOWN_SIMPLE,
    ABCConstants,
)
from scalarverma.jantzen import SimplicityVerdict
from scalarverma.ratvec import Weight, inner, is_integer, pairing, reflect
from scalarverma.rootdata import ParabolicRootDatum

# One representative per family plus the sizes the acceptance sweep uses.
SWEEP_CASES = (
    [HermitianCase("AIII", p=p, q=q) for p, q in [(1, 1), (2, 2), (2, 3), (3, 3)]]
    + [HermitianCase("CI", n=n) for n in (2, 3, 4)]
    + [HermitianCase("BI", n=n) for n in (2, 3, 4)]
    + [HermitianCase("DI", n=n) for n in (2, 3, 4)]
    + [HermitianCase("DIII", n=n) for n in (2, 3, 4, 5)]
    + [HermitianCase("EIII"), HermitianCase("EVII")]
)

# Every admissible case: AIII with p + q <= 20, CI, BI, DI and DIII with
# n = 2..20, EIII and EVII.
ADMISSIBLE_CASES = (
    [HermitianCase("AIII", p=p, q=s - p) for s in range(2, 21) for p in range(1, s)]
    + [HermitianCase(tag, n=n) for tag in ("CI", "BI", "DI", "DIII") for n in range(2, 21)]
    + [HermitianCase("EIII"), HermitianCase("EVII")]
)


def random_case(rng: random.Random, max_rank: int = 6) -> HermitianCase:
    """Draw a random case with bounded rank from all seven families."""
    tag = rng.choice(["AIII", "CI", "BI", "DI", "DIII", "EIII", "EVII"])
    if tag == "AIII":
        return HermitianCase(tag, p=rng.randint(1, max_rank // 2 + 1), q=rng.randint(1, max_rank // 2 + 1))
    if tag in ("CI", "BI", "DI", "DIII"):
        return HermitianCase(tag, n=rng.randint(2, max_rank))
    return HermitianCase(tag)


def random_weight(rng: random.Random, dim: int, span: int = 9, denominators=(1, 1, 2, 3, 4)) -> Weight:
    """Random rational vector; small denominators keep arithmetic fast."""
    return tuple(Fraction(rng.randint(-span, span), rng.choice(denominators)) for _ in range(dim))


def abc_lattice(constants: ABCConstants) -> tuple[Fraction, ...]:
    """The reduction points a, a + c, ..., b of first-reduction constants."""
    out = []
    z = constants.a
    while z <= constants.b:
        out.append(z)
        z += constants.c
    return tuple(out)


def progression_contains_reference(start, step, x) -> bool:
    """Membership of x in {start + k * step : k = 0, 1, 2, ...}, in Fraction arithmetic."""
    t = (Fraction(x) - start) / step
    return t >= 0 and is_integer(t)


def reducible_reference(constants: ABCConstants, c) -> bool:
    """closed_form_reducible in Fraction arithmetic, from EHW's definition.

    In z = c + B the reducible set is the union over j < r of A + jC + N,
    where r - 1 = (B - A) / C; when A = B that is the one progression A + N.
    """
    z = Fraction(c) + constants.b
    last = (constants.b - constants.a) / constants.c
    return any(
        progression_contains_reference(constants.a + j * constants.c, 1, z)
        for j in range(int(last) + 1)
    )


def abc_verdict_reference(constants: ABCConstants, z) -> str:
    """abc_verdict in Fraction arithmetic."""
    x = Fraction(z)
    if x < constants.a:
        return KNOWN_SIMPLE
    t = (x - constants.a) / constants.c
    if is_integer(t) and constants.a + t * constants.c <= constants.b:
        return KNOWN_REDUCIBLE
    return INDETERMINATE


def verdict_support(verdict: SimplicityVerdict) -> tuple[Weight, ...]:
    """The support roots of a verdict, in the order of its terms."""
    return tuple(t.beta for t in verdict.terms)


def random_levi_word(datum: ParabolicRootDatum, rng: random.Random, max_len: int = 12) -> list[Weight]:
    """A random word in the simple Levi reflections, as a list of roots."""
    if not datum.levi_simples:
        return []
    return [rng.choice(datum.levi_simples) for _ in range(rng.randint(0, max_len))]


def apply_word(mu: Weight, word: list[Weight]) -> Weight:
    for alpha in word:
        mu = reflect(mu, alpha)
    return mu


def is_levi_regular_integral(datum: ParabolicRootDatum, mu: Weight) -> bool:
    """True when every positive Levi pairing of mu is a nonzero integer."""
    for alpha in datum.levi_positive:
        k = pairing(mu, alpha)
        if k == 0 or not is_integer(k):
            return False
    return True


def shadow_normalize(datum: ParabolicRootDatum, mu: Weight, rng: random.Random):
    """Independent chamber normalizer choosing a random descent each step.

    Returns (is_regular, rep, parity) with the same meaning as the
    library's normalize().  Differs from production on purpose: the wall
    scan and the descent choice are made differently, so agreement is
    evidence.
    """
    if any(inner(mu, alpha) == 0 for alpha in datum.levi_positive):
        return (False, None, None)
    cur = mu
    steps = 0
    while True:
        negatives = [alpha for alpha in datum.levi_simples if inner(cur, alpha) < 0]
        if not negatives:
            return (True, cur, steps % 2)
        cur = reflect(cur, rng.choice(negatives))
        steps += 1
        assert steps <= len(datum.levi_positive), "shadow descent ran too long"


@contextlib.contextmanager
def criterion(capsys, tag: str, description: str):
    """Print one PASS/FAIL line per acceptance criterion, capture or not."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[{tag}] {description}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def eiii() -> ParabolicRootDatum:
    return build_datum(HermitianCase("EIII"))


@pytest.fixture(scope="session")
def evii() -> ParabolicRootDatum:
    return build_datum(HermitianCase("EVII"))
