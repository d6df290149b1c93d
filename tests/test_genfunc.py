"""Tests for generating functions, the polynomial pipeline, and fibers."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordgenus import cli, genfunc
from chordgenus.asymptotics import singularity_polynomial
from chordgenus.bruteforce import (
    count_by_genus_onechords,
    count_macromolecular_multi,
    count_shapes,
)
from chordgenus.genfunc import (
    RationalFunction,
    bivariate_pde_residual,
    catalan_series,
    catalan_series_reciprocal_form,
    catalan_series_sqrt_form,
    diagram_bivariate,
    diagram_bivariate_fiber_sum,
    fiber_series_macromolecular,
    fiber_series_shapes,
    genus_polynomial,
    genus_polynomial_direct,
    genus_polynomial_records,
    genus_series,
    genus_series_closed_form,
    macromolecular_argument,
    macromolecular_coeffs,
    macromolecular_prefactor,
    macromolecular_series,
    macromolecular_series_fiber_sum,
    ode_residual,
    q_polynomial,
    reduced_genus_polynomial,
    shape_bivariate,
    shape_bivariate_inflated,
    _diagram_bivariate_composed,
    _macromolecular_series_composed,
    _shape_bivariate_composed,
)
from chordgenus.recurrences import diagram_count_min_chords
from chordgenus.series import BiSeries, Poly, Series, _list_mul, geometric_series, rational_power
from chordgenus.verify import GOLDEN_GENUS_POLYNOMIALS


def difference_table_shape_rows(g, order_z, order_u):
    """S_g(z, u) = C_g(z/(1+z), u) from the rows of C_g(x, y), by differences.

    The route ``shape_bivariate_rows`` took before the shape PDE, kept as
    its witness: row i >= 1 is the (i-1)-th forward difference of rows
    1, 2, ... of C_g at their first entry, O(n^3) additions.
    """
    grid = genfunc.diagram_bivariate_rows(g, order_z, order_u)
    out = [list(grid[0])]
    diff = grid[1:]
    while diff:
        out.append(list(diff[0]))
        diff = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(diff, diff[1:])]
    return out


def q_sigma_definition(sigma):
    """q_sigma = z^(2 sigma) - z^2 + 1, the denominator of the stack kernel."""
    return Poly.monomial(2 * sigma) - Poly.monomial(2) + Poly.one()


def n1_sigma_definition(sigma):
    """n1_sigma = z^(2 sigma) + (1 - z) q_sigma."""
    return Poly.monomial(2 * sigma) + Poly([1, -1]) * q_sigma_definition(sigma)


def bracket_loop_series(g, sigma, order):
    """D_{g,sigma}, g >= 1, from the bracket sum_k p_k z^(2 sigma k) q^(k+1) n1^(6g-2-2k).

    The route ``macromolecular_series`` took before its Horner pass over
    R_g, kept as its witness: each k rebuilds its term from scratch with
    6g-1-k order-length products, then the bracket times Delta^(1/2-3g).
    """
    q, n1 = q_sigma_definition(sigma), n1_sigma_definition(sigma)
    shift = 2 * sigma
    delta = n1 * n1 - Poly.monomial(shift, 4) * q
    qi, n1i = genfunc._int_coeffs(q), genfunc._int_coeffs(n1)
    bracket = [0] * (order + 1)
    for k, pk in enumerate(genfunc._int_coeffs(genus_polynomial(g))):
        if not pk or shift * k > order:
            continue
        term = [0] * (shift * k) + [pk]
        for factor in [qi] * (k + 1) + [n1i] * (6 * g - 2 - 2 * k):
            term = _list_mul(term, factor, min(order, len(term) + len(factor) - 2))
        for i, c in enumerate(term):
            bracket[i] += c
    tail = rational_power(delta.coeffs, Fraction(1, 2) - 3 * g, order)
    return Series(_list_mul(bracket, tail, order))


@pytest.fixture(scope="module")
def joint6():
    return count_by_genus_onechords(6)


@pytest.fixture(scope="module")
def shapes6():
    return count_shapes(6)


@pytest.fixture(scope="module")
def mm12():
    return count_macromolecular_multi(12, (1, 2, 3))


class TestCatalan:
    def test_three_forms_agree(self):
        assert (
            catalan_series(15)
            == catalan_series_sqrt_form(15)
            == catalan_series_reciprocal_form(15)
        )

    def test_low_coefficients(self):
        assert catalan_series(6).coeffs == (1, 1, 2, 5, 14, 42, 132)

    def test_quadratic_equation(self):
        c = catalan_series(15)
        residual = (c * c).shift_up(1).truncate(15) - c + Series.one(15)
        assert residual.is_zero()

    def test_matches_genus_zero_counts(self):
        assert catalan_series(10) == genus_series(0, 10)


class TestGenusPolynomials:
    def test_golden_values(self):
        for g, expected in GOLDEN_GENUS_POLYNOMIALS.items():
            assert genus_polynomial(g) == expected

    def test_direct_route_matches_pipeline(self):
        for g in range(1, 7):
            assert genus_polynomial_direct(g) == genus_polynomial(g)

    def test_direct_route_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            genus_polynomial_direct(0)

    def test_degree_and_divisibility(self):
        for g in range(1, 7):
            p = genus_polynomial(g)
            assert p.degree <= 3 * g - 1
            assert p.valuation() >= 2 * g
            assert p.is_integral()
            assert p(Fraction(1, 4)) != 0

    def test_reduced_constant_term(self):
        for g in range(1, 7):
            r = reduced_genus_polynomial(g)
            assert r.coeff(0) == diagram_count_min_chords(g)
            assert r(Fraction(1, 4)) != 0

    def test_partial_fractions_sum_to_zero(self):
        # the full partial-fraction decomposition of Q/w^top has total
        # coefficient zero, which is what makes both integration-constant
        # routes agree
        for rec in genus_polynomial_records(5)[1:]:
            assert sum(rec.partial_fractions) == 0

    def test_partial_fraction_top_value(self):
        # A_top is Q evaluated at the root of w, and the new polynomial
        # inherits its value at 1/4 from it
        for rec in genus_polynomial_records(5)[1:]:
            g_prev = rec.g - 1
            top = 3 * g_prev + 4
            # partial_fractions holds A_2 .. A_top
            a_top = rec.partial_fractions[top - 2]
            assert len(rec.partial_fractions) == top - 1
            assert a_top == rec.q_prev(Fraction(1, 4))
            assert rec.poly(Fraction(1, 4)) == a_top / (3 * g_prev + 3)

    def test_records_match_the_w_power_assembly(self):
        # the Laurent assembly as it ran before the one basis change: a table
        # of powers of w = 1-4z and one subtraction per partial fraction
        w = Poly([1, -4])
        for rec in genus_polynomial_records(12)[1:]:
            top = 3 * (rec.g - 1) + 4
            w_pow = [Poly.one()]
            for _ in range(top - 1):
                w_pow.append(w_pow[-1] * w)
            inside = Poly.zero()
            for j, aj in zip(range(2, top + 1), rec.partial_fractions):
                if aj:
                    inside = inside + (w_pow[top - 1] - w_pow[top - j]).scale(aj / (j - 1))
            poly = inside.divide_by_power(1).scale(Fraction(-1, 4))
            assert (rec.poly, rec.reduced) == (poly, poly.divide_by_power(2 * rec.g))

    def test_q_polynomial_structure(self):
        for g in range(1, 5):
            q = q_polynomial(g)
            assert q.degree <= 3 * g + 2
            assert q.valuation() == 2 * g + 2
            assert q(Fraction(1, 4)) != 0

    def test_q_polynomial_is_the_ladder_of_p_g(self):
        # read from the record of P_(g+1); the ladder of P_g rebuilds it
        for g in range(1, 31):
            assert q_polynomial(g) == genfunc._q_from_poly(genus_polynomial(g), g)
        with pytest.raises(ValueError):
            q_polynomial(0)

    def test_cold_records_need_no_recursion_per_genus(self):
        # built bottom-up, a cold record at genus 12 fits in a stack that a
        # genus-by-genus recursion (about 27 + g frames) would overflow
        def depth():
            frame, d = sys._getframe(), 0
            while frame:
                frame, d = frame.f_back, d + 1
            return d

        expected = genus_polynomial(12)
        genfunc._record.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth() + 30)
        try:
            assert genus_polynomial(12) == expected
        finally:
            sys.setrecursionlimit(limit)

    def test_records_shape(self):
        recs = genus_polynomial_records(3)
        assert [r.g for r in recs] == [1, 2, 3]
        assert recs[0].q_prev is None
        assert recs[0].partial_fractions is None
        assert len(recs[2].partial_fractions) == 3 * 2 + 3


class TestClosedFormSeries:
    def test_matches_recursion(self):
        for g in range(1, 5):
            assert genus_series_closed_form(g, 20) == genus_series(g, 20)

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            genus_series_closed_form(0, 5)


class TestOde:
    def test_residual_vanishes(self):
        for g in range(1, 4):
            assert ode_residual(g, 12).is_zero()

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            ode_residual(0, 5)


class TestBivariate:
    def test_diagram_bivariate_matches_oracle(self, joint6):
        for g in (0, 1, 2):
            biv = diagram_bivariate(g, 5, 5)
            for n in range(6):
                for m in range(6):
                    assert biv.coeff(n, m) == joint6.count(g, n, m)

    def test_row_sums_give_plain_counts(self):
        biv = diagram_bivariate(1, 8, 8)
        plain = genus_series(1, 8)
        for n in range(9):
            assert sum(biv.coeff(n, m) for m in range(9)) == plain.coeff(n)

    def test_no_onechord_excess(self):
        # a diagram with n chords has at most n 1-chords
        biv = diagram_bivariate(0, 6, 6)
        for n in range(7):
            for m in range(n + 1, 7):
                assert biv.coeff(n, m) == 0

    def test_shape_bivariate_matches_oracle(self, shapes6):
        for g in (0, 1, 2):
            sb = shape_bivariate(g, 5, 5)
            for n in range(6):
                for m in range(6):
                    assert sb.coeff(n, m) == shapes6.count(g, n, m)

    def test_stack_inflation_identity(self):
        for g in (0, 1, 2):
            assert shape_bivariate_inflated(g, 5, 5) == diagram_bivariate(g, 5, 5)

    def test_pde_residual_vanishes(self):
        for g in (0, 1, 2):
            assert bivariate_pde_residual(g, 7, 7).is_zero()

    @pytest.mark.parametrize("orders", [(12, 12), (12, 7), (7, 12), (4, 4), (0, 0), (0, 3), (3, 0)])
    def test_integer_routes_equal_their_composed_witnesses(self, orders):
        for g in range(4):
            assert diagram_bivariate(g, *orders) == _diagram_bivariate_composed(g, *orders)
            assert shape_bivariate(g, *orders) == _shape_bivariate_composed(g, *orders)

    @pytest.mark.parametrize(
        "orders", [(40, 40), (40, 12), (12, 40), (91, 3), (0, 0), (3, 5), (8, 2), (11, 11)]
    )
    def test_shape_pde_rows_equal_the_difference_table(self, orders):
        # (0, 0) .. (11, 11) put 2g past order_z for the higher genera
        for g in range(7):
            assert genfunc.shape_bivariate_rows(g, *orders) == difference_table_shape_rows(
                g, *orders
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 24), st.integers(0, 24))
    def test_shape_pde_rows_equal_the_difference_table_property(self, g, order_z, order_u):
        assert genfunc.shape_bivariate_rows(g, order_z, order_u) == difference_table_shape_rows(
            g, order_z, order_u
        )

    def test_shapes_table_past_the_former_bivariate_limit(self, capsys):
        assert cli.main(["table", "shapes", "--n-max", "91", "--g-max", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["payload"]["rows"]
        expected = difference_table_shape_rows(0, 91, 91)
        assert [(r["g"], r["n"], r["m"], r["count"]) for r in rows] == [
            ("0", str(n), str(m), str(v))
            for n, row in enumerate(expected)
            for m, v in enumerate(row)
        ]

    def test_rows_are_ints_on_the_requested_rectangle(self):
        for rows_of in (genfunc.diagram_bivariate_rows, genfunc.shape_bivariate_rows):
            rows = rows_of(2, 9, 4)
            assert len(rows) == 10 and all(len(row) == 5 for row in rows)
            assert all(type(v) is int for row in rows for v in row)
        assert genfunc.shape_bivariate_rows(5, 9, 9) == [[0] * 10 for _ in range(10)]

    def test_bivariate_validation(self):
        for build in (diagram_bivariate, shape_bivariate):
            for args in ((-1, 4, 4), (1, -1, 4), (1, 4, -1)):
                with pytest.raises(ValueError):
                    build(*args)


class TestFibers:
    def test_shape_fiber_is_inflated_monomial(self):
        fib = fiber_series_shapes(2, 1, 6, 3)
        inflated = geometric_series(6).shift_up(1).truncate(6).pow(2)
        for i in range(7):
            for j in range(4):
                expected = inflated.coeff(i) if j == 1 else 0
                assert fib.coeff(i, j) == expected

    def test_shape_fiber_validation(self):
        with pytest.raises(ValueError):
            fiber_series_shapes(0, 0, 4, 4)
        with pytest.raises(ValueError):
            fiber_series_shapes(2, 3, 4, 4)
        with pytest.raises(ValueError):
            fiber_series_shapes(2, 1, 4, 0)

    def test_diagram_fiber_sum_matches_bivariate(self, shapes6):
        for g in (0, 1, 2):
            assert diagram_bivariate_fiber_sum(g, 6, 6, shapes6) == diagram_bivariate(
                g, 6, 6
            )

    def test_diagram_fiber_sum_validates_table(self, joint6, shapes6):
        with pytest.raises(ValueError):
            diagram_bivariate_fiber_sum(1, 6, 6, joint6)
        with pytest.raises(ValueError):
            diagram_bivariate_fiber_sum(1, 8, 8, shapes6)

    def test_macromolecular_fiber_validation(self):
        with pytest.raises(ValueError):
            fiber_series_macromolecular(0, 0, 1, 6)
        with pytest.raises(ValueError):
            fiber_series_macromolecular(2, 3, 1, 6)
        with pytest.raises(ValueError):
            fiber_series_macromolecular(1, 1, 0, 6)

    def test_single_chord_macromolecular_fiber(self):
        # one chord, one 1-chord, sigma=1: stacks over one chord with at
        # least one inserted vertex and free isolated vertices elsewhere
        fib = fiber_series_macromolecular(1, 1, 1, 8)
        expected = (
            Poly([1, -2]).as_series(8).reciprocal()
            * geometric_series(8)
        ).shift_up(3).truncate(8)
        assert fib == expected

    def test_macromolecular_fiber_sum_matches_closed_form(self, shapes6):
        shp5 = count_shapes(5)
        for sigma in (1, 2):
            for g in (0, 1):
                lhs = macromolecular_series_fiber_sum(g, sigma, 10, shp5)
                rhs = macromolecular_series(g, sigma, 10)
                assert lhs == rhs

    def test_macromolecular_fiber_sum_validates_coverage(self):
        shp2 = count_shapes(2)
        with pytest.raises(ValueError):
            macromolecular_series_fiber_sum(1, 1, 10, shp2)


class TestMacromolecular:
    def test_prefactor_sigma_one(self):
        pre = macromolecular_prefactor(1)
        assert pre.num == Poly.one()
        assert pre.den == Poly([1, -1, 1])

    def test_argument_vanishes_at_zero(self):
        for sigma in (1, 2, 3):
            theta = macromolecular_argument(sigma).to_series(10)
            assert theta.valuation() == 2 * sigma

    def test_series_matches_oracle(self, mm12):
        for sigma in (1, 2, 3):
            for g in (1, 2):
                ser = macromolecular_series(g, sigma, 12)
                for n in range(13):
                    assert ser.coeff(n) == mm12[sigma].count(g, n)

    def test_genus_zero_extension_matches_oracle(self, mm12):
        for sigma in (1, 2, 3):
            ser = macromolecular_series(0, sigma, 12)
            for n in range(13):
                assert ser.coeff(n) == mm12[sigma].count(0, n)

    def test_known_low_counts(self):
        # the crossing needs 4 vertices at sigma=1; doubling it needs 8 at
        # sigma=2
        d11 = macromolecular_series(1, 1, 6)
        assert d11.coeffs[:5] == (0, 0, 0, 0, 1)
        d12 = macromolecular_series(1, 2, 9)
        assert d12.coeffs == (0, 0, 0, 0, 0, 0, 0, 0, 1, 5)

    def test_closed_form_equals_composition_witness(self):
        for g in range(4):
            for sigma in range(1, 5):
                for order in (0, 1, 2 * sigma, 17, 40):
                    assert macromolecular_series(g, sigma, order) == (
                        _macromolecular_series_composed(g, sigma, order)
                    ), (g, sigma, order)

    def test_horner_pass_equals_the_per_k_bracket(self):
        for g in range(1, 9):
            for sigma in range(1, 6):
                start = 4 * sigma * g  # the first possibly nonzero coefficient
                for order in (0, 1, start - 1, start, start + 1, 60, 150):
                    assert macromolecular_series(g, sigma, order) == (
                        bracket_loop_series(g, sigma, order)
                    ), (g, sigma, order)
        assert macromolecular_series(12, 2, 300) == bracket_loop_series(12, 2, 300)

    def test_horner_pass_makes_o_g_products(self, monkeypatch):
        g, sigma, order = 12, 2, 300
        reduced_genus_polynomial(g)  # the P_g pipeline multiplies too; warm it
        calls = []

        def counting(*args):
            calls.append(args)
            return _list_mul(*args)

        monkeypatch.setattr(genfunc, "_list_mul", counting)
        ser = macromolecular_series(g, sigma, order)
        # b, then 2(g-1) Horner products, then H x tail; the per-k bracket
        # made 499 products here
        assert len(calls) <= 2 * g
        assert ser == bracket_loop_series(g, sigma, order)

    def test_int_kernel_equals_the_series_and_the_composition_witness(self):
        for g in range(4):
            for sigma in range(1, 4):
                start = 4 * sigma * g
                for order in {0, 1, start - 1, start, 40} - {-1}:
                    coeffs = macromolecular_coeffs(g, sigma, order)
                    assert type(coeffs) is list and len(coeffs) == order + 1
                    assert all(type(c) is int for c in coeffs), (g, sigma, order)
                    assert tuple(coeffs) == macromolecular_series(g, sigma, order).coeffs
                    assert tuple(coeffs) == (
                        _macromolecular_series_composed(g, sigma, order).coeffs
                    ), (g, sigma, order)

    def test_genus_zero_divisibility_check_still_fires(self, monkeypatch):
        def perturbed(a, alpha, order):
            root = rational_power(a, alpha, order)
            root[1] += 2  # keeps every coefficient even, breaks the z^(2 sigma) factor
            return root

        monkeypatch.setattr(genfunc, "rational_power", perturbed)
        with pytest.raises(ArithmeticError, match="not divisible by z\\^4"):
            macromolecular_coeffs(0, 2, 10)

    def test_sigma_polynomials_match_their_definitions(self):
        for sigma in range(1, 41):
            q, n1 = genfunc._q_sigma(sigma), genfunc._n1_sigma(sigma)
            assert Poly(q) == q_sigma_definition(sigma), sigma
            assert Poly(n1) == n1_sigma_definition(sigma), sigma
            a, b = [0] * (2 * sigma) + q, _list_mul(n1, n1, 2 * len(n1) - 2)
            delta = Poly(b) - Poly(a).scale(4)
            assert delta == -singularity_polynomial(sigma), sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            macromolecular_series(-1, 1, 5)
        with pytest.raises(ValueError):
            macromolecular_series(1, 0, 5)


class TestRationalFunction:
    def test_geometric_expansion(self):
        rf = RationalFunction(Poly.one(), Poly([1, -1]))
        assert rf.to_series(6) == geometric_series(6)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly.one(), Poly.zero())

    def test_pole_at_origin_rejected(self):
        rf = RationalFunction(Poly.one(), Poly([0, 1]))
        with pytest.raises(ZeroDivisionError):
            rf.to_series(4)
