"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Everything here runs at zero tolerance; the arithmetic is exact, so any
mismatch is a hard failure.  Criterion 1's sweep is shared with criteria
8 and 9 through a module-scoped fixture.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

import golden_tables as G
from conftest import (
    SWEEP_CASES,
    abc_lattice,
    apply_word,
    criterion,
    random_case,
    random_levi_word,
    random_weight,
    shadow_normalize,
)
from golden_tables import sign_pattern_root
from reference import theta_pairing
from scalarverma import (
    HermitianCase,
    abc_constants,
    abc_verdict,
    build_datum,
    classify_scalar,
    closed_form_reducible,
    line_offset,
    progression_summary,
)
from scalarverma.cli import main
from scalarverma.ehw import KNOWN_REDUCIBLE, KNOWN_SIMPLE
from scalarverma.jantzen import REDUCIBLE, SIMPLE, jantzen_support
from scalarverma.ratvec import add, inner, pairing, reflect, scale, weight
from scalarverma.rootdata import scalar_parameter_weight
from scalarverma.weyl import normalize

Q = Fraction
STEP = Q(1, 6)


@dataclass(frozen=True)
class SweepPoint:
    c: Fraction
    z: Fraction
    verdict: str
    closed_form: bool
    screen: str


@dataclass(frozen=True)
class Sweep:
    points: dict  # label -> list[SweepPoint]
    elapsed: float


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    started = time.monotonic()
    per_case = {}
    for case in SWEEP_CASES:
        datum = build_datum(case)
        con = abc_constants(case)
        offset = line_offset(case)
        lo, hi = con.a - 5 - offset, con.b + 10 - offset
        rows = []
        c = lo
        while c <= hi:
            verdict = classify_scalar(datum, c).verdict
            z = c + offset
            rows.append(SweepPoint(
                c=c,
                z=z,
                verdict=verdict,
                closed_form=closed_form_reducible(case, c),
                screen=abc_verdict(con, z),
            ))
            c += STEP
        per_case[case.label] = rows
    return Sweep(points=per_case, elapsed=time.monotonic() - started)


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_a1_oracle_matches_closed_form(sweep, capsys):
    with criterion(capsys, "A1", "chamber-sum oracle equals closed-form classification on every lattice point"):
        assert set(sweep.points) == {c.label for c in SWEEP_CASES}
        total = 0
        for label, rows in sweep.points.items():
            assert len(rows) >= 91
            for pt in rows:
                assert (pt.verdict == REDUCIBLE) == pt.closed_form, (label, pt)
            total += len(rows)
        assert total > 1800
        assert sweep.elapsed < 2.0, f"sweep took {sweep.elapsed:.2f}s"


def test_a2_table1_golden(capsys, eiii):
    with criterion(capsys, "A2", "table 1 reproduced exactly, regular rows as frozen"):
        payload = cli_json(capsys, "table", "--table", "1", "--format", "json")
        assert payload["case"] == "EIII" and payload["z"] == "9"
        got = {r["pattern"]: tuple(Q(v) for v in r["values"]) for r in payload["rows"]}
        assert got == G.TABLE1
        assert [r["pattern"] for r in payload["rows"]] == [
            p for p in G.PATTERN_ORDER_EVEN if p in G.TABLE1
        ]
        lam = scalar_parameter_weight(eiii, Q(9) - line_offset(eiii.case))
        mu = add(lam, eiii.rho)
        regular = {
            p for p in got
            if normalize(eiii, reflect(mu, sign_pattern_root(p, -1))).is_regular
        }
        assert regular == G.TABLE1_REGULAR


def test_a3_table2_golden(capsys, eiii):
    with criterion(capsys, "A3", "table 2 reproduced exactly, regular rows as frozen"):
        payload = cli_json(capsys, "table", "--table", "2", "--format", "json")
        assert payload["case"] == "EIII" and payload["z"] == "10"
        got = {r["pattern"]: tuple(Q(v) for v in r["values"]) for r in payload["rows"]}
        assert got == G.TABLE2
        lam = scalar_parameter_weight(eiii, Q(10) - line_offset(eiii.case))
        mu = add(lam, eiii.rho)
        regular = {
            p for p in got
            if normalize(eiii, reflect(mu, sign_pattern_root(p, -1))).is_regular
        }
        assert regular == G.TABLE2_REGULAR


def test_a4_table3_golden(capsys, evii):
    with criterion(capsys, "A4", "table 3 reproduced at four parameters, edge reflection escapes it"):
        for a in (Q(-5), Q(-3), Q(-2), Q(-1)):
            payload = cli_json(capsys, "table", "--table", "3", "--a", str(a), "--format", "json")
            assert payload["case"] == "EVII" and payload["a"] == str(a)
            got = {r["pattern"]: tuple(Q(v) for v in r["values"]) for r in payload["rows"]}
            assert set(got) == set(G.TABLE3)
            for pattern, values in got.items():
                assert values == G.evaluate(G.TABLE3[pattern], a), (a, pattern)
            mu = add(scalar_parameter_weight(evii, a), evii.rho)
            edge_theta = theta_pairing(evii, reflect(mu, evii.gamma))
            assert edge_theta == (a - 7) / 2
            assert all(values[3] != edge_theta for values in got.values())


def test_a5_table4_golden(capsys, evii):
    with criterion(capsys, "A5", "table 4 reproduced at a=-7 with support exclusions and candidate screen"):
        payload = cli_json(capsys, "table", "--table", "4", "--a", "-7", "--format", "json")
        assert payload["case"] == "EVII" and payload["a"] == "-7"
        got = {r["pattern"]: tuple(Q(v) for v in r["values"]) for r in payload["rows"]}
        assert set(got) == set(G.TABLE4)
        for pattern, values in got.items():
            assert values == G.evaluate(G.TABLE4[pattern], Q(-7)), pattern
        support10 = set(jantzen_support(evii, scalar_parameter_weight(evii, Q(-7))))
        support11 = set(jantzen_support(evii, scalar_parameter_weight(evii, Q(-6))))
        assert sign_pattern_root("-----", 1) not in support10
        assert sign_pattern_root("-----", 1) not in support11
        assert sign_pattern_root("++---", 1) not in support10
        assert sign_pattern_root("++---", 1) in support11
        mu = add(scalar_parameter_weight(evii, Q(-7)), evii.rho)
        assert pairing(mu, sign_pattern_root("++---", 1)) == 0
        candidates = {
            p for p, values in got.items()
            if sign_pattern_root(p, 1) in support10
            and len({abs(v) for v in values}) == 5
        }
        assert candidates == G.TABLE4_CANDIDATES_AT_MINUS_7


def test_a6_spot_checks(capsys):
    with criterion(capsys, "A6", "strip spot checks match the closed-form verdicts"):
        # BI: integral points strictly inside the strip stay simple
        for n, zs in ((3, [3]), (4, [4, 5]), (5, [5, 6, 7])):
            case = HermitianCase("BI", n=n)
            for z in zs:
                assert abc_constants(case).a < z < abc_constants(case).b
                v = classify_scalar(case, Q(z) - line_offset(case))
                assert v.verdict == SIMPLE, (n, z)
        # DI: integral points strictly inside the strip are reducible
        for n, zs in ((4, [4]), (5, [5, 6])):
            case = HermitianCase("DI", n=n)
            for z in zs:
                v = classify_scalar(case, Q(z) - line_offset(case))
                assert v.verdict == REDUCIBLE, (n, z)
        for z in (9, 10):
            v = classify_scalar(HermitianCase("EIII"), Q(z - 11))
            assert v.verdict == REDUCIBLE, z
        for z in (10, 11, 12, 14, 15, 16):
            v = classify_scalar(HermitianCase("EVII"), Q(z - 17))
            assert v.verdict == REDUCIBLE, z


def test_a7_randomized_properties(capsys):
    with criterion(capsys, "A7", "randomized property suite, 1000+ seeded trials per property"):
        _property_half_sum(1000)
        _property_abelian(1000)
        _property_zeta_calibration(1000)
        _property_theta_fixed(1000)
        _property_orbit_invariance(1000)
        _property_reflection_algebra(1000)
        _property_empty_support(1000)


def _property_half_sum(trials):
    rng = random.Random(101)
    for _ in range(trials):
        datum = build_datum(random_case(rng))
        total = weight([0] * datum.ambient_dim)
        for alpha in datum.positive_roots:
            total = add(total, alpha)
        assert total == scale(Q(2), datum.rho)


def _property_abelian(trials):
    rng = random.Random(102)
    for _ in range(trials):
        datum = build_datum(random_case(rng, max_rank=5))
        pos = set(datum.positive_roots)
        nil = datum.nilradical_roots
        for i, a in enumerate(nil):
            for b in nil[i:]:
                assert add(a, b) not in pos


def _property_zeta_calibration(trials):
    rng = random.Random(103)
    for _ in range(trials):
        datum = build_datum(random_case(rng))
        for alpha in datum.levi_simples:
            assert inner(datum.zeta, alpha) == 0
        assert pairing(datum.zeta, datum.gamma) == 1
        beta = rng.choice(datum.nilradical_roots)
        assert inner(datum.zeta, beta) > 0


def _property_theta_fixed(trials):
    rng = random.Random(104)
    for _ in range(trials):
        datum = build_datum(random_case(rng))
        if datum.levi_simples:
            alpha = rng.choice(datum.levi_simples)
            assert reflect(datum.theta_u, alpha) == datum.theta_u
        assert pairing(datum.theta_u, datum.noncompact_simple) == 1


def _property_orbit_invariance(trials):
    rng = random.Random(105)
    for _ in range(trials):
        datum = build_datum(random_case(rng))
        mu = random_weight(rng, datum.ambient_dim, span=7, denominators=(1, 2, 3))
        word = random_levi_word(datum, rng, max_len=12)
        form0 = normalize(datum, mu)
        form1 = normalize(datum, apply_word(mu, word))
        assert form0.is_regular == form1.is_regular
        if form0.is_regular:
            assert form1.rep == form0.rep
            assert form1.parity == (form0.parity + len(word)) % 2
        if rng.random() < 0.1:
            regular, rep, parity = shadow_normalize(datum, mu, rng)
            assert form0.is_regular == regular
            if regular:
                assert (form0.rep, form0.parity) == (rep, parity)


def _property_reflection_algebra(trials):
    rng = random.Random(106)
    for _ in range(trials):
        dim = rng.randint(1, 8)
        u = random_weight(rng, dim, span=6, denominators=(1, 2, 3))
        v = random_weight(rng, dim, span=6, denominators=(1, 2, 3))
        alpha = random_weight(rng, dim, span=4, denominators=(1, 2))
        if not any(alpha):
            continue
        assert reflect(reflect(u, alpha), alpha) == u
        assert inner(reflect(u, alpha), reflect(v, alpha)) == inner(u, v)


def _property_empty_support(trials):
    rng = random.Random(107)
    hits = 0
    for _ in range(trials):
        case = random_case(rng)
        datum = build_datum(case)
        c = Q(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 12]))
        lam = scalar_parameter_weight(datum, c)
        if not jantzen_support(datum, lam):
            hits += 1
            v = classify_scalar(datum, c)
            assert v.verdict == SIMPLE and v.route == "empty_support"
    assert hits >= 100


def test_a8_screen_coherence(sweep, capsys):
    with criterion(capsys, "A8", "reduction-constant screen never contradicts the oracle; lattice points all reducible"):
        for label, rows in sweep.points.items():
            for pt in rows:
                if pt.screen == KNOWN_SIMPLE:
                    assert pt.verdict == SIMPLE, (label, pt)
                elif pt.screen == KNOWN_REDUCIBLE:
                    assert pt.verdict == REDUCIBLE, (label, pt)
        for case in SWEEP_CASES:
            rows = {pt.z: pt for pt in sweep.points[case.label]}
            for z in abc_lattice(abc_constants(case)):
                assert rows[z].verdict == REDUCIBLE, (case.label, z)


def test_a9_progression_summaries(sweep, capsys):
    with criterion(capsys, "A9", "scan summaries collapse to one finite part plus one arithmetic tail"):
        expected = {
            "BI(3)": ((Q(-3, 2),), Q(-1, 2), Q(1, 2)),
            "CI(2)": ((), Q(-1, 2), Q(1, 2)),
            "EIII": ((), Q(-3), Q(1)),
        }
        for label, (finite, start, step) in expected.items():
            case = next(c for c in SWEEP_CASES if c.label == label)
            scan = [(pt.c, pt.verdict) for pt in sweep.points[label]]
            summary = progression_summary(case, scan)
            assert summary.finite_part == finite, label
            assert (summary.tail_start, summary.tail_step) == (start, step), label
            # the summary must reproduce the closed form across the window
            for pt in sweep.points[label]:
                in_summary = pt.c in finite or (
                    pt.c >= start and ((pt.c - start) / step).denominator == 1
                )
                assert in_summary == pt.closed_form, (label, pt.c)
