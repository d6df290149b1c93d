from fractions import Fraction

import pytest

from chordgenus.bruteforce import count_by_genus, double_factorial_odd
from chordgenus.recurrences import (
    BoundaryPolyTable,
    boundary_polynomials,
    boundary_polynomials_independent,
    diagram_count,
    diagram_count_closed_form,
    diagram_count_min_chords,
    diagram_count_rows,
    diagram_count_table,
    min_chords_egf,
    min_chords_egf_closed,
)
from chordgenus.series import Poly

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_genus_zero_row_is_catalan():
    tbl = diagram_count_table(0, 12)
    assert [tbl.count(0, n) for n in range(13)] == CATALAN


def test_known_columns():
    tbl = diagram_count_table(3, 7)
    assert [tbl.count(1, n) for n in range(2, 7)] == [1, 10, 70, 420, 2310]
    assert tbl.count(2, 4) == 21
    assert tbl.count(2, 5) == 483
    assert tbl.count(2, 6) == 6468
    assert tbl.count(3, 6) == 1485


def test_recursion_table_refuses_counts_it_did_not_compute():
    tbl = diagram_count_table(2, 6)
    assert tbl.count(2, 6) == 6468
    assert tbl.count(2, 3) == 0  # below 2g chords, inside the range
    for g, n in ((3, 6), (3, 2), (0, 7), (2, 7)):
        with pytest.raises(IndexError, match="outside this table"):
            tbl.count(g, n)


def test_explicit_zeros_are_stored():
    tbl = diagram_count_table(3, 4)
    assert (3, 4) in tbl.entries and tbl.entries[(3, 4)] == 0
    assert (2, 3) in tbl.entries and tbl.entries[(2, 3)] == 0


def test_row_sums_give_all_diagrams():
    n_max = 14
    tbl = diagram_count_table(n_max // 2, n_max)
    for n in range(n_max + 1):
        assert tbl.total(n) == double_factorial_odd(n)


def test_recursion_matches_oracle():
    oracle = count_by_genus(6)
    tbl = diagram_count_table(3, 6)
    for n in range(7):
        for g in range(4):
            assert tbl.count(g, n) == oracle.count(g, n)


def test_closed_forms_match_recursion():
    tbl = diagram_count_table(3, 25)
    for g in (1, 2, 3):
        for n in range(2 * g, 26):
            assert diagram_count_closed_form(g, n) == tbl.count(g, n)
    with pytest.raises(ValueError):
        diagram_count_closed_form(1, 1)
    with pytest.raises(ValueError):
        diagram_count_closed_form(4, 10)


def test_min_chords_counts():
    assert [diagram_count_min_chords(g) for g in range(4)] == [1, 1, 21, 1485]
    tbl = diagram_count_table(5, 10)
    for g in range(6):
        assert diagram_count_min_chords(g) == tbl.count(g, 2 * g)


def test_min_chords_egf_identity():
    assert min_chords_egf(20) == min_chords_egf_closed(20)


def test_diagram_count_single():
    assert diagram_count(1, 4) == 70
    assert diagram_count(0, 5) == 42


def test_count_rows_are_the_table_cell_for_cell():
    for g_max, n_max in ((0, 0), (3, 0), (0, 9), (2, 7), (6, 11), (9, 30)):
        rows = diagram_count_rows(g_max, n_max)
        assert len(rows) == g_max + 1
        assert all(len(row) == n_max + 1 for row in rows)
        table = diagram_count_table(g_max, n_max)
        assert table.entries == {
            (g, n): rows[g][n] for g in range(g_max + 1) for n in range(n_max + 1)
        }
        assert (table.class_tag, table.n_max, table.g_max) == ("full", n_max, g_max)


def test_count_rows_match_closed_forms_and_sum_to_the_double_factorial():
    rows = diagram_count_rows(30, 60)
    for g in (1, 2, 3):
        assert rows[g][: 2 * g] == [0] * (2 * g)
        assert rows[g][2 * g :] == [diagram_count_closed_form(g, n) for n in range(2 * g, 61)]
    for n in range(61):
        assert sum(row[n] for row in rows) == double_factorial_odd(n)
    assert all(type(v) is int for row in rows for v in row)


def test_count_rows_validation():
    with pytest.raises(ValueError):
        diagram_count_rows(-1, 4)
    with pytest.raises(ValueError):
        diagram_count_rows(2, -1)


# -- boundary-component polynomials


def test_boundary_polys_low_rows():
    t = boundary_polynomials(3)
    assert t.poly(0) == Poly([0, 1])
    assert t.poly(1) == Poly([0, 0, 1])
    assert t.poly(2) == Poly([0, Fraction(1, 3), 0, Fraction(2, 3)])


def test_boundary_polys_recursion_holds_as_polynomials():
    # checked by evaluation, so it shares no basis change with the route it
    # checks; both sides have degree <= 9, so 14 points make it an identity
    t = boundary_polynomials(8)
    for n in range(1, 9):
        p, prev = t.poly(n), t.poly(n - 1)
        for x in range(-3, 11):
            assert p(x) == p(x - 1) + prev(x) + prev(x - 1)


def test_boundary_polys_degree_and_normalization():
    t = boundary_polynomials(9)
    for n in range(10):
        assert t.poly(n).degree == n + 1
        assert t.poly(n)(0) == 0


def test_independent_route_agrees():
    a = boundary_polynomials(9)
    b = boundary_polynomials_independent(9)
    assert a.rows == b.rows


def test_boundary_evaluation_counts_cycles():
    # p(n, N) (2n-1)!! = sum_g c_g(n) N^(n+1-2g)
    t = boundary_polynomials(6)
    tbl = diagram_count_table(3, 6)
    for n in range(7):
        for N in range(7):
            rhs = sum(
                tbl.count(g, n) * Fraction(N) ** (n + 1 - 2 * g)
                for g in range(n // 2 + 1)
            )
            assert t.evaluate(n, N) * double_factorial_odd(n) == rhs
