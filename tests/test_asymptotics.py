"""Tests for interval arithmetic, root isolation, and growth constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordgenus import asymptotics
from chordgenus.asymptotics import (
    DEFAULT_WIDTH,
    PI_HI,
    PI_LO,
    AsymptoticEstimate,
    RationalInterval,
    asymptotic_ratio_interval,
    bracket_sqrt,
    count_roots_in,
    diagram_growth_ratio,
    dominant_singularity,
    empirical_growth_ratio,
    leading_constant,
    macromolecular_growth_interval,
    macromolecular_growth_ratio,
    singularity_polynomial,
    smallest_positive_root,
    sqrt_interval,
    sturm_chain,
)
from chordgenus.recurrences import diagram_count_closed_form
from chordgenus.series import Poly


class TestRationalInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(1), Fraction(0))

    def test_contains_and_within(self):
        iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert iv.contains(Fraction(2, 5))
        assert not iv.contains(Fraction(2, 3))
        assert iv.within(RationalInterval(Fraction(0), Fraction(1)))
        assert not iv.within(RationalInterval(Fraction(0), Fraction(2, 5)))

    def test_reciprocal(self):
        iv = RationalInterval(Fraction(1, 2), Fraction(2)).reciprocal()
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(2))
        with pytest.raises(ZeroDivisionError):
            RationalInterval(Fraction(0), Fraction(1)).reciprocal()

    def test_width_and_midpoint(self):
        iv = RationalInterval(Fraction(1), Fraction(2))
        assert iv.width == 1
        assert iv.midpoint() == Fraction(3, 2)


def bisected_sqrt(x, width):
    # bracket_sqrt as it ran before the direct formula: bisection of
    # [0, max(1, x)] over Fractions
    if x == 0:
        return RationalInterval(Fraction(0), Fraction(0))
    lo, hi = Fraction(0), max(Fraction(1), x)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


positive_fractions = st.builds(
    Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)
)


class TestBracketSqrt:
    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=10 ** 9), positive_fractions)
    @example(Fraction(1), Fraction(1, 8))
    @example(Fraction(1), Fraction(1))
    @example(Fraction(49), Fraction(1, 10 ** 12))
    @example(Fraction(1, 4), Fraction(3))
    @example(Fraction(9), Fraction(9))
    @example(Fraction(10 ** 6), DEFAULT_WIDTH)
    def test_matches_bisection(self, x, width):
        assert bracket_sqrt(x, width) == bisected_sqrt(x, width)

    def test_x_one_keeps_its_bracket_below_one(self):
        assert bracket_sqrt(Fraction(1), Fraction(1, 8)) == RationalInterval(
            Fraction(7, 8), Fraction(1)
        )

    def test_rejects_nonpositive_width(self):
        for width in (Fraction(0), Fraction(-1)):
            with pytest.raises(ValueError):
                bracket_sqrt(Fraction(2), width)

    def test_squares_bracket_the_input(self):
        for x in (Fraction(2), Fraction(5), Fraction(1, 7), Fraction(10 ** 6)):
            iv = bracket_sqrt(x)
            assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
            assert iv.width <= DEFAULT_WIDTH

    def test_perfect_square(self):
        iv = bracket_sqrt(Fraction(4))
        assert iv.contains(Fraction(2))

    def test_zero_and_negative(self):
        assert bracket_sqrt(Fraction(0)).width == 0
        with pytest.raises(ValueError):
            bracket_sqrt(Fraction(-1))

    def test_interval_version(self):
        iv = sqrt_interval(RationalInterval(Fraction(4), Fraction(9)))
        assert iv.contains(Fraction(2)) and iv.contains(Fraction(3))


class TestPiBounds:
    def test_archimedes(self):
        assert Fraction(223, 71) < PI_LO < PI_HI < Fraction(22, 7)

    def test_width(self):
        assert PI_HI - PI_LO == Fraction(1, 10 ** 20)


class TestLeadingConstant:
    def test_rational_factors(self):
        assert leading_constant(1).rational_factor == Fraction(1, 12)
        assert leading_constant(2).rational_factor == Fraction(1, 288)
        assert leading_constant(3).rational_factor == Fraction(1, 10368)

    def test_exponent_and_growth(self):
        est = leading_constant(2)
        assert est.power == Fraction(9, 2)
        assert est.growth == 4

    def test_constant_interval_brackets_float_value(self):
        import math

        est = leading_constant(1)
        target = 1 / (12 * math.sqrt(math.pi))
        assert float(est.constant_interval.lo) <= target <= float(est.constant_interval.hi)

    def test_genus_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_constant(0)


class TestRatioConvergence:
    def test_within_two_percent_at_moderate_n(self):
        iv = asymptotic_ratio_interval(1, 250)
        assert iv.within(RationalInterval(Fraction(98, 100), Fraction(102, 100)))

    def test_error_decreases_with_n(self):
        for g in (1, 2):
            errs = []
            for n in (250, 500, 1000):
                iv = asymptotic_ratio_interval(g, n)
                errs.append(abs(iv.midpoint() - 1))
            assert errs[0] > errs[1] > errs[2]


class TestSturm:
    def test_distinct_root_count(self):
        p = Poly([1, -3, 1])  # roots (3 +- sqrt5)/2 ~ 0.382, 2.618
        assert count_roots_in(p, Fraction(0), Fraction(1)) == 1
        assert count_roots_in(p, Fraction(0), Fraction(3)) == 2
        assert count_roots_in(p, Fraction(1), Fraction(2)) == 0

    def test_repeated_root_counted_once(self):
        p = Poly([Fraction(1, 4), -1, 1])  # (z - 1/2)^2
        assert count_roots_in(p, Fraction(0), Fraction(1)) == 1

    def test_no_real_roots(self):
        assert count_roots_in(Poly([1, 0, 1]), Fraction(-10), Fraction(10)) == 0

    def test_chain_starts_square_free(self):
        p = Poly([Fraction(1, 4), -1, 1])
        chain = sturm_chain(p)
        assert chain[0].degree == 1


def grid_scan_root(p, width=DEFAULT_WIDTH, search_to=Fraction(2)):
    # smallest_positive_root as it ran before the binary search: a linear
    # scan of the grid k/1024 for a sign change or an exact zero
    if count_roots_in(p, Fraction(0), search_to) == 0:
        raise ArithmeticError(f"no root in (0, {search_to}]")
    step = Fraction(1, 1024)
    prev, prev_sign = Fraction(0), (1 if p(Fraction(0)) > 0 else -1)
    x = step
    while x <= search_to:
        val = p(x)
        if val == 0:
            if count_roots_in(p, Fraction(0), prev) == 0:
                return (x, x, True)
            raise ArithmeticError("a smaller root precedes the grid hit")
        sign = 1 if val > 0 else -1
        if sign != prev_sign:
            lo, hi = prev, x
            if count_roots_in(p, Fraction(0), lo) != 0:
                raise ArithmeticError(f"a root lies below the bracket ({lo}, {hi}]")
            if count_roots_in(p, lo, hi) != 1:
                raise ArithmeticError(f"bracket ({lo}, {hi}] does not isolate one root")
            flo = p(lo)
            while hi - lo > width:
                mid = (lo + hi) / 2
                fmid = p(mid)
                if fmid == 0:
                    return (mid, mid, True)
                if (flo > 0) == (fmid > 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return (lo, hi, False)
        prev, prev_sign = x, sign
        x += step
    raise ArithmeticError("grid scan found no sign change; widen the search")


def bracket_of(iso):
    return (iso.lo, iso.hi, iso.exact)


# Roots 1/k with |k| <= 32 lie more than 1/1024 apart, so no grid cell holds
# two of them and both routes must bracket the same smallest root.
linear_factors = st.lists(
    st.integers(-32, 32).filter(bool), min_size=1, max_size=5, unique=True
).filter(lambda ks: max(ks) > 0)


class TestSmallestPositiveRoot:
    def test_matches_grid_scan_on_singularity_polynomials(self):
        for sigma in range(1, 13):
            p = singularity_polynomial(sigma)
            assert bracket_of(smallest_positive_root(p)) == grid_scan_root(p)

    @settings(max_examples=60, deadline=None)
    @given(linear_factors)
    def test_matches_grid_scan_on_products_of_linear_factors(self, ks):
        p = Poly.one()
        for k in ks:
            p = p * Poly([-1, k])
        assert bracket_of(smallest_positive_root(p)) == grid_scan_root(p)

    def test_sturm_counts_stop_at_one_root(self, monkeypatch):
        # every singularity polynomial has one root in (0, 2], so V(0) and
        # V(2) are the only chain evaluations; the sign bisection does the rest
        calls = []
        signs_at = asymptotics._signs_at

        def counting(chain, x):
            calls.append(x)
            return signs_at(chain, x)

        monkeypatch.setattr(asymptotics, "_signs_at", counting)
        for sigma in range(1, 13):
            calls.clear()
            smallest_positive_root(singularity_polynomial(sigma))
            assert calls == [0, 2], sigma

    @staticmethod
    def assert_brackets(p, root):
        iso = smallest_positive_root(p)
        assert iso.lo <= root <= iso.hi
        assert iso.hi - iso.lo <= DEFAULT_WIDTH
        # no root below the bracket; an exact hit counts itself in (0, lo]
        assert count_roots_in(p, Fraction(0), iso.lo) == (1 if iso.exact else 0)

    def test_two_roots_in_one_cell_are_split(self):
        # 1/3000 and 1/1024 share the first cell (0, 1/1024]; the grid point
        # 1/1024 is a root, but not the smallest one
        self.assert_brackets(Poly([-1, 1024]) * Poly([-1, 3000]), Fraction(1, 3000))

    def test_even_multiplicity_root_is_bracketed(self):
        # (3000z - 1)^2 (1 - z): p keeps its sign across the double root
        # 1/3000, its square-free part does not
        self.assert_brackets(Poly([-1, 3000]) ** 2 * Poly([1, -1]), Fraction(1, 3000))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1000, 9000), st.integers(1, 3)),
            min_size=1,
            max_size=4,
            unique_by=lambda km: km[0],
        )
    )
    @example([(3000, 1), (2900, 1), (1024, 1)])
    @example([(1024, 1)])
    def test_crowded_first_cell(self, factors):
        # every root 1/k lies in (0, 1/1000]: one to four roots, some of them
        # repeated, share the first grid cell or its neighbour
        p = Poly([1, -1])
        for k, m in factors:
            p = p * Poly([-1, k]) ** m
        self.assert_brackets(p, Fraction(1, max(k for k, _ in factors)))

    def test_golden_ratio_conjugate(self):
        iso = smallest_positive_root(Poly([1, -3, 1]))
        s5 = bracket_sqrt(Fraction(5))
        assert iso.lo <= (3 - s5.lo) / 2 and (3 - s5.hi) / 2 <= iso.hi
        assert iso.hi - iso.lo <= DEFAULT_WIDTH
        assert not iso.exact

    def test_exact_grid_hit(self):
        p = Poly([Fraction(3, 8), Fraction(-5, 4), 1])  # (z-1/2)(z-3/4)
        iso = smallest_positive_root(p)
        assert iso.exact and iso.lo == iso.hi == Fraction(1, 2)

    def test_root_below_first_grid_point(self):
        tiny = Fraction(1, 3000)
        p = Poly([tiny * Fraction(1, 2), -(tiny + Fraction(1, 2)), 1])
        iso = smallest_positive_root(p)
        assert iso.lo <= tiny <= iso.hi

    def test_rejects_root_at_zero(self):
        with pytest.raises(ValueError):
            smallest_positive_root(Poly([0, -1, 1]))

    def test_no_positive_root(self):
        with pytest.raises(ArithmeticError):
            smallest_positive_root(Poly([1, 0, 1]))


class TestDominantSingularity:
    def test_sigma_one_closed_form(self):
        # the cleared polynomial factors and the root is (3 - sqrt5)/2
        assert singularity_polynomial(1) == Poly([-1, 2, 1, 2, -1])
        iso = dominant_singularity(1)
        s5 = bracket_sqrt(Fraction(5))
        assert iso.lo <= (3 - s5.lo) / 2 and (3 - s5.hi) / 2 <= iso.hi
        growth = macromolecular_growth_interval(1)
        assert growth.lo <= (3 + s5.hi) / 2 and (3 + s5.lo) / 2 <= growth.hi

    def test_sigma_two_growth_rate(self):
        growth = macromolecular_growth_interval(2)
        # certified value 1.9679769365...; the coarse 4-digit reference
        # 1.9685 is off by 5.3e-4, so anchor at its demonstrated accuracy
        assert growth.within(
            RationalInterval(Fraction(19679, 10000), Fraction(19680, 10000))
        )
        assert abs(growth.midpoint() - Fraction(19685, 10000)) <= Fraction(1, 1000)

    def test_growth_decreases_with_sigma(self):
        rates = [macromolecular_growth_interval(s).midpoint() for s in (1, 2, 3)]
        assert rates[0] > rates[1] > rates[2] > 1


class TestEmpiricalRatios:
    def test_generic_skips_zeros(self):
        assert empirical_growth_ratio([1, 2, 6], 2) == 3
        assert empirical_growth_ratio([1, 2, 6, 0, 0], 4) == 3
        with pytest.raises(ValueError):
            empirical_growth_ratio([1, 0, 1, 0, 1], 4)

    def test_catalan_control(self):
        r = diagram_growth_ratio(0, 400)
        assert abs(r - 4) <= Fraction(4, 100)

    def test_genus_one_ratio_near_four(self):
        r = diagram_growth_ratio(1, 400)
        assert abs(r - 4) <= Fraction(4, 100)

    def test_diagram_ratio_matches_closed_forms(self):
        # the ratio reads the recursion row; Catalan numbers and the g <= 3
        # closed forms are its witnesses
        def closed(g, n):
            return math.comb(2 * n, n) // (n + 1) if g == 0 else diagram_count_closed_form(g, n)

        for g in range(4):
            for n in [*range(2 * g + 1, 30), 400]:
                want = Fraction(closed(g, n), closed(g, n - 1))
                assert diagram_growth_ratio(g, n) == want, (g, n)

    def test_macromolecular_ratio_matches_growth_rate(self):
        r = macromolecular_growth_ratio(1, 1, 300)
        target = macromolecular_growth_interval(1).midpoint()
        assert abs(r / target - 1) <= Fraction(1, 100)
