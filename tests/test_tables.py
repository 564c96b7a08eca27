"""Golden comparisons for the four exceptional-case tables."""

from __future__ import annotations

from fractions import Fraction

import pytest

import golden_tables as G
from scalarverma import HermitianCase, build_datum, line_offset
from scalarverma.cli import _table_rows
from scalarverma.jantzen import jantzen_support
from scalarverma.ratvec import add, reflect
from scalarverma.rootdata import scalar_parameter_weight, sign_pattern_root
from scalarverma.weyl import normalize, theta_pairing

Q = Fraction


@pytest.mark.parametrize("table_id,table,regular", [
    (1, G.TABLE1, G.TABLE1_REGULAR),
    (2, G.TABLE2, G.TABLE2_REGULAR),
], ids=["table1", "table2"])
def test_eiii_tables_golden(table_id, table, regular, eiii):
    header, rows, meta = _table_rows(table_id, None)
    assert header == ("pattern", "e1", "e2", "e3", "e4", "e5")
    assert meta["case"] == "EIII"
    patterns = [p for p, _ in rows]
    # rows appear in canonical order and cover exactly the support patterns
    assert patterns == [p for p in G.PATTERN_ORDER_EVEN if p in table]
    for pattern, values in rows:
        assert values == table[pattern]
    # chamber status recomputed from scratch must match the frozen regular set
    z = Q(9) if table_id == 1 else Q(10)
    lam = scalar_parameter_weight(eiii, z - line_offset(eiii.case))
    mu = add(lam, eiii.rho)
    found = {
        p for p, _ in rows
        if normalize(eiii, reflect(mu, sign_pattern_root(p, -1))).is_regular
    }
    assert found == regular


def test_eiii_table_rows_are_support_slices(eiii):
    for table_id, z in ((1, Q(9)), (2, Q(10))):
        _, rows, _ = _table_rows(table_id, None)
        lam = scalar_parameter_weight(eiii, z - line_offset(eiii.case))
        support = set(jantzen_support(eiii, lam))
        pats = {p for p, _ in rows}
        in_support = {
            p for p in G.PATTERN_ORDER_EVEN if sign_pattern_root(p, -1) in support
        }
        assert pats == in_support


@pytest.mark.parametrize("a", [Q(-7), Q(-5), Q(-3), Q(-2), Q(-1)], ids=str)
def test_evii_table3_golden(a, evii):
    header, rows, meta = _table_rows(3, a)
    assert header == ("pattern", "e6", "e7", "e8", "theta")
    assert [p for p, _ in rows] == G.PATTERN_ORDER_ODD
    for pattern, values in rows:
        assert values == G.evaluate(G.TABLE3[pattern], a)


@pytest.mark.parametrize("a", [Q(-5), Q(-3), Q(-2), Q(-1)], ids=str)
def test_evii_edge_reflection_escapes_table3(a, evii):
    # reflecting along the nilradical edge root lands outside every table
    # row as measured by the orbit invariant
    lam = scalar_parameter_weight(evii, a)
    mu = add(lam, evii.rho)
    edge_theta = theta_pairing(evii, reflect(mu, evii.gamma))
    assert edge_theta == (a - 7) / 2
    _, rows, _ = _table_rows(3, a)
    assert all(values[3] != edge_theta for _, values in rows)


def test_evii_table4_golden():
    for a in (Q(-7), Q(-6)):
        header, rows, meta = _table_rows(4, a)
        assert header == ("pattern", "e1", "e2", "e3", "e4", "e5")
        assert [p for p, _ in rows] == [p for p in G.PATTERN_ORDER_ODD if p != "-----"]
        for pattern, values in rows:
            assert values == G.evaluate(G.TABLE4[pattern], a)


def test_evii_table4_support_exclusions(evii):
    # all-minus is never a support term at these parameters; ++--- drops
    # out only at the lower one
    for a, missing in ((Q(-7), {"-----", "++---"}), (Q(-6), {"-----"})):
        support = set(jantzen_support(evii, scalar_parameter_weight(evii, a)))
        absent = {
            p for p in G.PATTERN_ORDER_ODD if sign_pattern_root(p, 1) not in support
        }
        assert absent == missing


def test_evii_table4_candidate_screen(evii):
    support = set(jantzen_support(evii, scalar_parameter_weight(evii, Q(-7))))
    _, rows, _ = _table_rows(4, Q(-7))
    candidates = {
        p for p, values in rows
        if sign_pattern_root(p, 1) in support and len({abs(v) for v in values}) == 5
    }
    assert candidates == G.TABLE4_CANDIDATES_AT_MINUS_7


def test_table3_symbolic_rows_are_linear(evii):
    # two evaluation points pin an affine function: the table generator
    # must be affine in the parameter, like the frozen coefficients
    for a0, a1 in ((Q(-9), Q(1)), (Q(-4), Q(2))):
        r0 = dict(_table_rows(3, a0)[1])
        r1 = dict(_table_rows(3, a1)[1])
        for pattern, pairs in G.TABLE3.items():
            assert r0[pattern] == G.evaluate(pairs, a0)
            assert r1[pattern] == G.evaluate(pairs, a1)
