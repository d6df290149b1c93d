"""Tests for generating functions, the polynomial pipeline, and fibers."""

import sys
from fractions import Fraction

import pytest

from chordgenus import genfunc
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
    macromolecular_prefactor,
    macromolecular_series,
    macromolecular_series_fiber_sum,
    ode_residual,
    q_polynomial,
    reduced_genus_polynomial,
    shape_bivariate,
    shape_bivariate_inflated,
    _macromolecular_series_composed,
)
from chordgenus.recurrences import diagram_count_min_chords
from chordgenus.series import BiSeries, Poly, Series, geometric_series
from chordgenus.verify import GOLDEN_GENUS_POLYNOMIALS


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

    def test_q_polynomial_structure(self):
        for g in range(1, 5):
            q = q_polynomial(g)
            assert q.degree <= 3 * g + 2
            assert q.valuation() == 2 * g + 2
            assert q(Fraction(1, 4)) != 0

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
