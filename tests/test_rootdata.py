"""Case data: root systems, distinguished weights, structural invariants."""

from __future__ import annotations

import hashlib
import re
import signal
from fractions import Fraction

import pytest

from conftest import ADMISSIBLE_CASES, GROUP_FIELDS, ONE_WEIGHT_FIELDS, SWEEP_CASES, replaced
from golden_tables import parse_pattern, pattern_string, sign_pattern_root
from reference import orbit_reference
from scalarverma import HermitianCase, InvariantError, build_datum, rootdata
from scalarverma.cli import main
from scalarverma.errors import set_field
from scalarverma.ratvec import add, dot, inner, pairing, reflect, scale, weight
from scalarverma.rootdata import CASE_TAGS, ParabolicRootDatum, case_notes, scalar_parameter_weight

CASE_IDS = [c.label for c in SWEEP_CASES]

# The sweep plus larger ranks, for the structural invariants.
STRUCTURE_CASES = SWEEP_CASES + [
    HermitianCase("CI", n=8),
    HermitianCase("DIII", n=10),
    HermitianCase("AIII", p=5, q=5),
    HermitianCase("BI", n=8),
    HermitianCase("DI", n=8),
]
STRUCTURE_IDS = [c.label for c in STRUCTURE_CASES]

# (positive roots, nilradical roots) per family, as closed formulas
EXPECTED_COUNTS = {
    "AIII": lambda c: ((c.p + c.q) * (c.p + c.q - 1) // 2, c.p * c.q),
    "CI": lambda c: (c.n * c.n, c.n * (c.n + 1) // 2),
    "BI": lambda c: (c.n * c.n, 2 * c.n - 1),
    "DI": lambda c: (c.n * (c.n - 1), 2 * c.n - 2),
    "DIII": lambda c: (c.n * (c.n - 1), c.n * (c.n - 1) // 2),
    "EIII": lambda c: (36, 16),
    "EVII": lambda c: (63, 27),
}


def test_case_tags():
    assert set(CASE_TAGS) == set(EXPECTED_COUNTS)


@pytest.mark.parametrize("bad", [
    dict(tag="XX"),
    dict(tag="AIII"),                      # p, q required
    dict(tag="AIII", p=0, q=2),
    dict(tag="CI"),                        # n required
    dict(tag="CI", n=1),
    dict(tag="EIII", n=3),                 # exceptional cases take no size
    dict(tag="EVII", p=1, q=1),
    dict(tag="BI", n=3, p=1),
    dict(tag="CI", n=3.0),                 # parameters are ints: not a float,
    dict(tag="CI", n="3"),                 # a string
    dict(tag="AIII", p=True, q=2),         # or a bool
])
def test_invalid_case_construction(bad):
    with pytest.raises(ValueError):
        HermitianCase(**bad)


def test_case_labels():
    assert HermitianCase("AIII", p=2, q=3).label == "AIII(2,3)"
    assert HermitianCase("DIII", n=5).label == "DIII(5)"
    assert HermitianCase("EVII").label == "EVII"


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=STRUCTURE_IDS)
def test_root_counts(case):
    datum = build_datum(case)
    n_pos, n_nil = EXPECTED_COUNTS[case.tag](case)
    assert len(datum.positive_roots) == n_pos
    assert len(datum.nilradical_roots) == n_nil
    assert len(datum.levi_positive) == n_pos - n_nil


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=STRUCTURE_IDS)
def test_nilradical_partition(case):
    datum = build_datum(case)
    pos = set(datum.positive_roots)
    nil = set(datum.nilradical_roots)
    levi = set(datum.levi_positive)
    assert nil <= pos and levi <= pos
    assert nil | levi == pos and not (nil & levi)


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_rho_is_half_sum(case):
    datum = build_datum(case)
    total = weight([0] * datum.ambient_dim)
    for alpha in datum.positive_roots:
        total = add(total, alpha)
    assert total == scale(Fraction(2), datum.rho)


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_simple_roots_are_positive_and_indecomposable(case):
    datum = build_datum(case)
    pos = set(datum.positive_roots)
    assert set(datum.simple_roots) <= pos
    sums = {add(a, b) for a in datum.simple_roots for b in datum.simple_roots}
    assert not (sums & set(datum.simple_roots))
    assert set(datum.levi_simples) == set(datum.simple_roots) & set(datum.levi_positive)
    assert datum.noncompact_simple in datum.nilradical_roots
    assert datum.noncompact_simple in datum.simple_roots


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=STRUCTURE_IDS)
def test_zeta_calibration(case):
    datum = build_datum(case)
    for alpha in datum.levi_simples:
        assert inner(datum.zeta, alpha) == 0
    assert pairing(datum.zeta, datum.gamma) == 1
    for beta in datum.nilradical_roots:
        assert inner(datum.zeta, beta) > 0


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=STRUCTURE_IDS)
def test_gamma_is_dominant_maximal_in_nilradical(case):
    datum = build_datum(case)
    assert datum.gamma in datum.nilradical_roots
    for alpha in datum.levi_simples:
        assert inner(datum.gamma, alpha) >= 0
    # maximality: adding any positive root never stays a root
    pos = set(datum.positive_roots)
    for alpha in datum.positive_roots:
        assert add(datum.gamma, alpha) not in pos


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=STRUCTURE_IDS)
def test_nilradical_is_abelian(case):
    datum = build_datum(case)
    pos = set(datum.positive_roots)
    nil = datum.nilradical_roots
    for i, a in enumerate(nil):
        for b in nil[i:]:
            assert add(a, b) not in pos


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_theta_direction(case):
    datum = build_datum(case)
    assert pairing(datum.theta_u, datum.noncompact_simple) == 1
    for alpha in datum.levi_simples:
        assert reflect(datum.theta_u, alpha) == datum.theta_u


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_nilradical_closed_under_levi_reflections(case):
    datum = build_datum(case)
    nil = set(datum.nilradical_roots)
    for alpha in datum.levi_simples:
        for beta in nil:
            assert reflect(beta, alpha) in nil


@pytest.mark.parametrize("case", SWEEP_CASES, ids=CASE_IDS)
def test_scalar_parameter_weight(case):
    datum = build_datum(case)
    c = Fraction(-5, 3)
    lam = scalar_parameter_weight(datum, c)
    assert lam == scale(c, datum.zeta)
    for alpha in datum.levi_simples:
        assert inner(lam, alpha) == 0


# sha256 of the admissible cases' data reprs, joined by newlines.
ADMISSIBLE_DATA_SHA256 = "27d33b1e59f5f94cc6f111d3a00fff63deceb1e4cb6a08e45b37c9d9f4a28975"


def test_every_admissible_datum_is_pinned():
    assert len(ADMISSIBLE_CASES) == 268
    text = "\n".join(repr(build_datum(case)) for case in ADMISSIBLE_CASES)
    assert hashlib.sha256(text.encode()).hexdigest() == ADMISSIBLE_DATA_SHA256


@pytest.mark.parametrize("name", ["positive_roots", "levi_positive", "nilradical_roots"])
def test_root_fields_are_sorted(name):
    for case in ADMISSIBLE_CASES:
        roots = getattr(build_datum(case), name)
        assert roots == tuple(sorted(roots)), case.label


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=[case.label for case in ADMISSIBLE_CASES])
def test_cold_build_makes_fractions_per_dimension_not_per_coordinate(monkeypatch, case):
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(rootdata, "Fraction", counting)
    derived = rootdata._derive(case)
    # The build and its view make no Fraction: the view is scaled from the
    # groups alone and reads no field of the datum, each blanked on a copy.
    assert made == []
    blank = ParabolicRootDatum(case, derived.groups)
    for name in derived._fields[2:]:
        set_field(blank, name, None)
    view = blank.integer_view
    assert made == []
    # The first field read derives all ten, with one Fraction per distinct
    # value: one per coordinate of each root would be dim * len(positive_roots).
    derived.rho
    assert 0 < len(made) <= 4 * derived.ambient_dim, len(made)
    monkeypatch.undo()
    expected = build_datum(case)
    assert derived == expected
    assert repr(view) == repr(expected.integer_view)


# sha256 of the admissible cases' integer-view reprs, joined by newlines:
# the same text from a derived datum and from its constructor-built copy.
ADMISSIBLE_VIEWS_SHA256 = "da55b61db837765687948ac0d5c0a9c9501eaa01a40cc3400498851a9ed84754"


@pytest.mark.parametrize("source", ["derived", "constructed"])
def test_every_admissible_view_is_pinned(source):
    # Pins the numbers themselves, D among them: a change to the scaling
    # that both sources share moves this digest.
    build = build_datum if source == "derived" else lambda case: replaced(build_datum(case))
    text = "\n".join(repr(build(case).integer_view) for case in ADMISSIBLE_CASES)
    assert hashlib.sha256(text.encode()).hexdigest() == ADMISSIBLE_VIEWS_SHA256


def test_one_view_from_two_sources():
    # A derived datum's view comes from _derive's integers; a copy rebuilt
    # from its Fraction fields by the tests' `replaced` has groups over each
    # field's lcm instead: the two are the same view.
    other = 0
    for case in ADMISSIBLE_CASES:
        datum = build_datum(case)
        rebuilt = replaced(datum)
        other += rebuilt.groups != datum.groups
        assert rebuilt == datum, case.label
        assert repr(datum.integer_view) == repr(rebuilt.integer_view), case.label
    # The build's rho is 4*rho over 4, a copy's over rho's own lcm, 1 or 2.
    assert other == len(ADMISSIBLE_CASES)


@pytest.fixture
def walks(monkeypatch):
    """Record the arguments and the result of every orbit walk."""
    calls = []
    walk = rootdata._orbit

    def spy(twice, cartan):
        doubled = walk(twice, cartan)
        calls.append((twice, cartan, doubled))
        return doubled

    monkeypatch.setattr(rootdata, "_orbit", spy)
    return calls


def test_orbit_walk_matches_full_dot_walk(walks):
    for case in ADMISSIBLE_CASES:
        rootdata._derive(case)
    assert len(walks) == len(ADMISSIBLE_CASES)
    for case, (twice, cartan, doubled) in zip(ADMISSIBLE_CASES, walks):
        assert list(doubled.items()) == list(orbit_reference(twice, cartan).items()), case.label
    # Tracked pairings move along a Cartan column, which differs from the
    # row only where the Cartan matrix is not symmetric: in CI and BI (E7 is
    # simply laced).
    asymmetric = {
        case.tag
        for case, (_, cartan, _) in zip(ADMISSIBLE_CASES, walks)
        if cartan != [list(column) for column in zip(*cartan)]
    }
    assert asymmetric == {"CI", "BI"}


def test_positive_roots_are_closed_under_simple_reflections():
    # Read off the datum's integers, with no walk: s_i takes every positive
    # root but alpha_i to another positive root, and alpha_i to -alpha_i.
    for case in ADMISSIBLE_CASES:
        groups = build_datum(case).groups
        (nil, _), (levi, _), (simples, _) = groups[3], groups[4], groups[6]
        roots = set(nil) | set(levi)
        assert len(roots) == len(nil) + len(levi), case.label
        for a in simples:
            norm = dot(a, a)
            for b in roots:
                k, rest = divmod(2 * dot(b, a), norm)
                assert rest == 0, (case.label, a, b)
                image = tuple(x - k * y for x, y in zip(b, a))
                if b == a:
                    assert image == tuple(-x for x in a), case.label
                else:
                    assert image in roots, (case.label, a, b)


@pytest.mark.parametrize(
    ("case", "dots"), [(HermitianCase("CI", n=20), 404), (HermitianCase("EVII"), 130)],
    ids=["CI(20)", "EVII"],
)
def test_build_takes_no_dot_for_the_gram_matrix(monkeypatch, case, dots):
    # CI(20): two zeta checks over its 400 positive roots, and two dots
    # each for zeta and theta_u; EVII adds its wall check over 63 roots.
    # The Gram matrix is summed over shared coordinates and the walk tracks
    # its pairings, so neither calls dot: rank^2 more would be 804 and 179.
    calls = []

    def counting(u, v):
        calls.append(None)
        return dot(u, v)

    monkeypatch.setattr(rootdata, "dot", counting)
    rootdata._derive(case)
    assert len(calls) == dots


def test_doubled_record_holds_twice_the_roots():
    # The groups behind every weight cli writes: 4*rho over 4, zeta and
    # theta_u each over its own denominator, and the build's own doubled
    # vectors over 2, one group per root field written, each aligned with
    # its field and equal to it by value.
    for case in ADMISSIBLE_CASES:
        datum = build_datum(case)
        groups = datum.groups
        assert len(groups) == len(GROUP_FIELDS), case.label
        for (vectors, den), name in zip(groups, GROUP_FIELDS):
            value = getattr(datum, name)
            written = tuple([tuple([Fraction(x, den) for x in v]) for v in vectors])
            assert written == ((value,) if name in ONE_WEIGHT_FIELDS else value), (case.label, name)
            assert name in ("rho", "zeta", "theta_u") or den == 2, (case.label, name)
    # Outside repr and equality, and never carried to a replaced datum,
    # whose groups the tests make from its own fields.
    assert "groups" not in repr(datum)
    copy = replaced(datum)
    assert copy == datum
    assert copy.groups != datum.groups and copy.groups == replaced(copy).groups


def test_build_datum_caches():
    a = build_datum(HermitianCase("CI", n=3))
    b = build_datum(HermitianCase("CI", n=3))
    assert a is b


def _bourbaki_cartan(case):
    """Bourbaki's Cartan matrix of the case's simple system, in Bourbaki's
    numbering, as [i][j] = 2*dot(a_i, a_j) / dot(a_i, a_i): a short root's
    row reads -2 toward the long root it meets."""
    rank = case.p + case.q - 1 if case.tag == "AIII" else {"EIII": 6, "EVII": 7}.get(case.tag, case.n)
    edges = {(i, i + 1): (-1, -1) for i in range(rank - 1)}
    if case.tag == "CI":
        edges[rank - 2, rank - 1] = (-2, -1)
    elif case.tag == "BI":
        edges[rank - 2, rank - 1] = (-1, -2)
    elif case.tag in ("DI", "DIII"):
        # alpha_n = e_{n-1} + e_n meets alpha_{n-2} only: A1 x A1 for n = 2
        del edges[rank - 2, rank - 1]
        if rank > 2:
            edges[rank - 3, rank - 1] = (-1, -1)
    elif case.tag in ("EIII", "EVII"):
        # alpha_1 - alpha_3 - alpha_4 - ... - alpha_7, alpha_2 on alpha_4
        del edges[0, 1], edges[1, 2]
        edges[0, 2] = edges[1, 3] = (-1, -1)
    matrix = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for (i, j), (ij, ji) in edges.items():
        matrix[i][j], matrix[j][i] = ij, ji
    return matrix


NONCOMPACT_INDEX = {
    "AIII": lambda case: case.p - 1,
    "CI": lambda case: case.n - 1,
    "DIII": lambda case: case.n - 1,
    "BI": lambda case: 0,
    "DI": lambda case: 0,
    "EIII": lambda case: 0,
    "EVII": lambda case: 6,
}


def test_simple_tables_are_bourbakis_doubled():
    # The tables alone, without the orbit walk: integer vectors that are
    # the datum's doubled simple roots, in Bourbaki's order, with the
    # family's noncompact node.
    for case in ADMISSIBLE_CASES:
        dim, simples, noncompact = rootdata._simple_system(case)
        assert type(simples) is tuple and all(type(a) is tuple for a in simples), case.label
        assert all(type(x) is int for a in simples for x in a), case.label
        assert simples == build_datum(case).groups[6][0], case.label
        cartan = [[Fraction(2 * dot(a, b), dot(a, a)) for b in simples] for a in simples]
        assert cartan == _bourbaki_cartan(case), case.label
        index = NONCOMPACT_INDEX[case.tag](case)
        both = (case.tag, case.n) == ("DI", 2)
        assert noncompact == ((0, 1) if both else (index,)), case.label


@pytest.fixture
def forced_system(monkeypatch):
    """Make every case derive from one given simple system, uncached."""
    def force(system):
        monkeypatch.setattr(rootdata, "_simple_system", lambda case: system)

    build_datum.cache_clear()
    yield force
    build_datum.cache_clear()


def _ci3_cut_at_first_simple():
    # alpha_1 = e1 - e2 as noncompact root: the highest root 2e1 has alpha_1-coefficient 2.
    dim, simples, _ = rootdata._simple_system(HermitianCase("CI", n=3))
    return dim, simples, (0,)


def test_non_abelian_nilradical_is_rejected(forced_system):
    forced_system(_ci3_cut_at_first_simple())
    with pytest.raises(InvariantError, match=r"^CI\(3\): nilradical is not abelian$"):
        build_datum(HermitianCase("CI", n=3))


def test_reducible_simple_system_has_no_highest_root(forced_system):
    forced_system((4, ((2, -2, 0, 0), (0, 0, 2, -2)), (0,)))
    with pytest.raises(InvariantError, match=r"^AIII\(2,2\): gamma is not the highest root$"):
        build_datum(HermitianCase("AIII", p=2, q=2))


def _with_simple(case, i, root):
    dim, simples, noncompact = rootdata._simple_system(case)
    return dim, simples[:i] + (root,) + simples[i + 1 :], noncompact


CI3 = HermitianCase("CI", n=3)

MALFORMED_SYSTEMS = {
    "dimension": (CI3, _with_simple(CI3, 2, (0, 0, 4, 0)), "weight of wrong dimension"),
    # e1 - e3 = (e1 - e2) + (e2 - e3): two coefficient vectors, one root.
    "dependent": (
        HermitianCase("AIII", p=1, q=2),
        (3, ((2, -2, 0), (0, 2, -2), (2, 0, -2)), (0,)),
        "duplicate positive roots",
    ),
    "two-noncompact": (
        CI3,
        rootdata._simple_system(CI3)[:2] + ((2, 0),),
        "Levi simples are not the simple system minus the noncompact root",
    ),
    # alpha_1 = 2e1 - e2: 2<alpha_2, alpha_1>/<alpha_1, alpha_1> = -2/5.
    "non-crystallographic": (
        HermitianCase("AIII", p=1, q=2),
        _with_simple(HermitianCase("AIII", p=1, q=2), 0, (4, -2, 0)),
        "simple system is not crystallographic",
    ),
    # e2, e1 - e2, e3 - e2: every Cartan integer is exact, but e1 - e2 and
    # e3 - e2 meet at an acute angle, so the orbit is no root system.  Its
    # nilradical (e1 - e2, e1, e1 + e2, e1 + e3) passes the earlier checks,
    # and the nilradical's sum 4e1 + e3 pairs to 1 with the Levi root e3.
    "zeta-orthogonal": (
        CI3,
        (3, ((0, 2, 0), (2, -2, 0), (0, -2, 2)), (1,)),
        "zeta not orthogonal to the Levi",
    ),
    # -e2, e2 - e3, 2e3: every Cartan integer is exact, but
    # 2(-e2) + 2(e2 - e3) + 2e3 = 0.  The system is of affine type: its
    # coefficient vectors never run out, while its roots repeat.
    "affine": (CI3, _with_simple(CI3, 0, (0, -2, 0)), "duplicate positive roots"),
    # alpha_1 with +1/2 in place of -1/2 at e6: off the E6 subspace.
    "off-e6": (
        HermitianCase("EIII"),
        _with_simple(HermitianCase("EIII"), 0, (1, -1, -1, -1, -1, 1, -1, 1)),
        "weight leaves the defining subspace",
    ),
    # dot(a, a) = 0 would divide the crystallographic check by zero.
    "zero": (CI3, _with_simple(CI3, 2, (0, 0, 0)), "zero simple root"),
}


def _out_of_time(signum, frame):
    raise TimeoutError("build_datum ran for over 1 s")


# The malformed systems whose derivation reaches the orbit walk; on
# "dependent" and "affine" the walk stops at its first repeated root.
WALKED_SYSTEMS = {"affine", "dependent", "off-e6", "two-noncompact", "zeta-orthogonal"}


@pytest.mark.parametrize("name", sorted(MALFORMED_SYSTEMS))
def test_malformed_system_is_rejected(forced_system, walks, name):
    case, system, message = MALFORMED_SYSTEMS[name]
    forced_system(system)
    # A derivation that never ends fails here instead of hanging the suite.
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(InvariantError, match=f"^{re.escape(f'{case.label}: {message}')}$"):
            try:
                build_datum(case)
            except TimeoutError as exc:
                pytest.fail(str(exc), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # The walk stops where the full-dot walk stops.
    assert len(walks) == (name in WALKED_SYSTEMS)
    for twice, cartan, doubled in walks:
        assert list(doubled.items()) == list(orbit_reference(twice, cartan).items())


def test_invariant_violation_in_the_datum_exits_3(forced_system, capsys):
    forced_system(_ci3_cut_at_first_simple())
    code = main(["datum-dump", "--case", "CI", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal invariant violation" in captured.err


def test_degenerate_case_notes():
    assert case_notes(HermitianCase("DI", n=2))
    assert case_notes(HermitianCase("DIII", n=2))
    assert not case_notes(HermitianCase("DI", n=4))
    assert not case_notes(HermitianCase("EIII"))


def test_degenerate_levi_shapes():
    # DI(2): both roots of so(4) sit in the nilradical, the Levi is a torus
    d = build_datum(HermitianCase("DI", n=2))
    assert d.levi_positive == ()
    assert len(d.positive_roots) == 2
    # DIII(2): one root on each side of the split
    d = build_datum(HermitianCase("DIII", n=2))
    assert d.levi_positive == (weight([1, -1]),)
    assert d.nilradical_roots == (weight([1, 1]),)


def test_exceptional_dimensions(eiii, evii):
    assert eiii.ambient_dim == 8 and evii.ambient_dim == 8
    assert len(eiii.simple_roots) == 6 and len(evii.simple_roots) == 7
    assert eiii.rho == weight([0, 1, 2, 3, 4, -4, -4, 4])
    assert evii.rho == weight([0, 1, 2, 3, 4, 5, Fraction(-17, 2), Fraction(17, 2)])
    assert evii.zeta == weight([0, 0, 0, 0, 0, 1, Fraction(-1, 2), Fraction(1, 2)])
    assert evii.gamma == weight([0, 0, 0, 0, 0, 0, -1, 1])


def _unit(i, dim, k=1):
    return weight([k if j == i else 0 for j in range(1, dim + 1)])


def _classical_closed_forms(case):
    """Simple roots, nilradical, rho, gamma and zeta written out per family."""
    dim = case.p + case.q if case.tag == "AIII" else case.n
    e = lambda i, k=1: _unit(i, dim, k)
    pm = lambda i, j, s: add(e(i), e(j, s))
    if case.tag == "AIII":
        p, q = case.p, case.q
        simples = [pm(i, i + 1, -1) for i in range(1, dim)]
        nil = {pm(i, j, -1) for i in range(1, p + 1) for j in range(p + 1, dim + 1)}
        rho = weight([Fraction(dim + 1, 2) - i for i in range(1, dim + 1)])
        gamma = pm(1, dim, -1)
        zeta = weight([Fraction(q, dim)] * p + [Fraction(-p, dim)] * q)
        return simples, nil, rho, gamma, zeta
    n = dim
    chain = [pm(i, i + 1, -1) for i in range(1, n)]
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    first_row = {pm(1, j, s) for j in range(2, n + 1) for s in (1, -1)}
    if case.tag == "CI":
        return (
            chain + [e(n, 2)],
            {pm(i, j, 1) for i, j in pairs} | {e(k, 2) for k in range(1, n + 1)},
            weight([n - i + 1 for i in range(1, n + 1)]),
            e(1, 2),
            weight([1] * n),
        )
    if case.tag == "BI":
        return (
            chain + [e(n)],
            first_row | {e(1)},
            weight([Fraction(2 * (n - i) + 1, 2) for i in range(1, n + 1)]),
            pm(1, 2, 1),
            e(1),
        )
    simples = chain + [pm(n - 1, n, 1)]
    rho = weight([n - i for i in range(1, n + 1)])
    if case.tag == "DI":
        return simples, first_row, rho, pm(1, 2, 1), e(1)
    return simples, {pm(i, j, 1) for i, j in pairs}, rho, pm(1, 2, 1), weight([Fraction(1, 2)] * n)


CLASSICAL_CASES = [
    HermitianCase(tag, n=n) for tag in ("CI", "BI", "DI", "DIII") for n in range(2, 11)
] + [HermitianCase("AIII", p=p, q=q) for p in range(1, 6) for q in range(1, 6)]


@pytest.mark.parametrize("case", CLASSICAL_CASES, ids=[c.label for c in CLASSICAL_CASES])
def test_classical_distinguished_weights(case):
    simples, nil, rho, gamma, zeta = _classical_closed_forms(case)
    d = build_datum(case)
    assert d.simple_roots == tuple(simples)
    assert set(d.nilradical_roots) == nil
    assert d.rho == rho
    assert d.gamma == gamma
    assert d.zeta == zeta


def test_pattern_roundtrip():
    for pat in ("+++++", "-+-+-", "-----"):
        assert pattern_string(parse_pattern(pat)) == pat
    with pytest.raises(ValueError):
        parse_pattern("+++")
    with pytest.raises(ValueError):
        parse_pattern("++*++")


def test_sign_pattern_roots_live_in_expected_sets(eiii, evii):
    # The 16 patterns with an even minus-count, with e6 = -1/2, are exactly
    # EIII's nilradical roots with e6 = -1/2; the 16 odd ones, with
    # e6 = +1/2, are EVII's with e6 = +1/2.
    for datum, parity, sixth in ((eiii, 0, -1), (evii, 1, 1)):
        roots = {sign_pattern_root(pattern_string(s), sixth) for s in _all_parities(parity)}
        assert len(roots) == 16
        assert roots == {b for b in datum.nilradical_roots if b[5] == Fraction(sixth, 2)}


def _all_parities(parity):
    out = []
    for m in range(32):
        v = tuple((m >> k) & 1 for k in range(5))
        if sum(v) % 2 == parity:
            out.append(tuple(1 if b == 0 else -1 for b in v))
    return out
