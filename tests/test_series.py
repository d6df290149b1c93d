import copy
import operator
import pickle
import random
from fractions import Fraction
from functools import reduce
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordgenus.diagrams import ChordDiagram, PartialDiagram
from chordgenus.genfunc import genus_polynomial_records
from chordgenus.series import (
    BiSeries,
    Poly,
    Series,
    exp_series,
    geometric_series,
    poly_divmod,
    poly_gcd,
    rational_power,
    sqrt_binomial,
    sqrt_newton,
)


def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, max_deg=6):
    return Poly([rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))])


def rand_series(rng, order=12):
    return Series([rand_fraction(rng) for _ in range(order + 1)])


# -- polynomials


def test_poly_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


def test_poly_ring_axioms():
    rng = random.Random(101)
    for _ in range(40):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero() == a
        assert a * Poly.one() == a
        assert a - a == Poly.zero()


def test_poly_evaluate_and_substitute():
    p = Poly([1, -3, 2])  # 1 - 3z + 2z^2
    assert p(2) == 1 - 6 + 8
    rng = random.Random(7)
    for _ in range(20):
        a, b, z = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        assert p.substitute(a, b)(z) == p(a + b * z)


def test_powers_match_repeated_mul():
    p = Poly([1, 1])
    assert p ** 5 == Poly([comb(5, k) for k in range(6)])
    rng = random.Random(55)
    q, s = rand_poly(rng, 3), rand_series(rng, 8)
    for k in range(10):
        assert q ** k == reduce(operator.mul, [q] * k, Poly.one())
        assert s.pow(k) == reduce(operator.mul, [s] * k, Series.one(s.order))


def test_poly_derivative_and_divide_by_power():
    p = Poly([0, 0, 3, 5])
    assert p.derivative() == Poly([0, 6, 15])
    assert p.divide_by_power(2) == Poly([3, 5])
    with pytest.raises(ArithmeticError):
        p.divide_by_power(3)


def test_substitute_spec_case():
    # z^2 rewritten in powers of w = 1 - 4z: substitute z = 1/4 - w/4
    q = Poly([0, 0, 1]).substitute(Fraction(1, 4), Fraction(-1, 4))
    assert q.coeffs == (Fraction(1, 16), Fraction(-1, 8), Fraction(1, 16))
    assert q.substitute(1, -4) == Poly([0, 0, 1])


def test_substitute_round_trip():
    # z -> a + b z is undone by z -> -a/b + z/b
    rng = random.Random(33)
    for _ in range(25):
        p = rand_poly(rng)
        a = rand_fraction(rng)
        b = Fraction(rng.choice([-4, -1, 2, 3]), rng.choice([1, 2]))
        assert p.substitute(a, b).substitute(-a / b, 1 / b) == p


def test_poly_divmod_and_gcd():
    rng = random.Random(55)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng, 4)
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    # gcd of polynomials with a known common factor
    common = Poly([1, 2, 1])
    g = poly_gcd(common * Poly([3, 1]), common * Poly([-1, 0, 2]))
    assert g == common.scale(Fraction(1, common.coeffs[-1]))


# -- univariate series


def test_series_orders_follow_min_rule():
    a = Series([1, 2, 3, 4])
    b = Series([5, 6, 7])
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a - b).order == 2


def test_series_coeff_beyond_order_raises():
    s = Series([1, 2])
    with pytest.raises(IndexError):
        s.coeff(2)


def test_series_ring_axioms():
    rng = random.Random(202)
    for _ in range(30):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(small_fractions, max_size=5), min_size=3, max_size=3))
def test_poly_ring_laws(coeff_lists):
    a, b, c = (Poly(cs) for cs in coeff_lists)
    zero, one = Poly.zero(), Poly.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero


def schoolbook_product(a, b):
    # the double loop Poly.__mul__ ran before it shared the series kernel
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return Poly(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(small_fractions, max_size=6), min_size=2, max_size=2))
@example([[], [Fraction(2), Fraction(1)]])
@example([[Fraction(0), Fraction(0)], [Fraction(3)]])
@example([[Fraction(0), Fraction(1)], []])
def test_poly_product_matches_schoolbook_loop(coeff_lists):
    a, b = coeff_lists
    assert Poly(a) * Poly(b) == schoolbook_product(a, b)


def horner_compose(p, inner):
    # the Horner loop Poly.compose ran before the Taylor-shift kernel
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = acc * inner + Poly((c,))
    return acc


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_fractions, max_size=9),
    st.one_of(st.just(Fraction(0)), small_fractions),
    st.one_of(st.just(Fraction(0)), small_fractions),
    small_fractions,
)
@example([], Fraction(2), Fraction(3), Fraction(1))
@example([Fraction(5)], Fraction(-1), Fraction(1), Fraction(2))
@example([Fraction(1), Fraction(2), Fraction(3)], Fraction(0), Fraction(-2), Fraction(1, 3))
@example([Fraction(1), Fraction(2), Fraction(3)], Fraction(3, 2), Fraction(0), Fraction(7))
@example([Fraction(1), Fraction(2), Fraction(3)], Fraction(0), Fraction(0), Fraction(-1))
def test_substitute_matches_horner_composition(coeffs, a, b, t):
    p = Poly(coeffs)
    q = p.substitute(a, b)
    assert q == horner_compose(p, Poly((a, b)))
    assert q(t) == p(a + b * t)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda order: st.lists(
            st.lists(small_fractions, min_size=order + 1, max_size=order + 1),
            min_size=3,
            max_size=3,
        )
    )
)
def test_series_ring_laws(coeff_lists):
    a, b, c = (Series(cs) for cs in coeff_lists)
    zero, one = Series.zero(a.order), Series.one(a.order)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero


def test_immutable_values_pickle_and_copy():
    values = [
        ChordDiagram.from_pairs([(1, 3), (2, 4)]),
        PartialDiagram.from_text("3;3,0,1"),
        Poly([1, Fraction(-2, 3)]),
        Series([1, 2, Fraction(1, 2)]),
        BiSeries([[1, 2], [Fraction(3, 4), 0]]),
        genus_polynomial_records(3)[-1],
    ]
    for value in values:
        for twin in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)


def test_series_coefficients_stay_reduced():
    rng = random.Random(13)
    for _ in range(10):
        s = rand_series(rng) * rand_series(rng)
        for c in s.coeffs:
            assert gcd(abs(c.numerator), c.denominator) == 1
            assert c.denominator > 0


def test_reciprocal_and_divide():
    rng = random.Random(303)
    for _ in range(20):
        a = rand_series(rng)
        if a.coeffs[0] == 0:
            continue
        assert a * a.reciprocal() == Series.one(a.order)
        b = rand_series(rng)
        assert b.divide(a) * a == b.truncate(min(a.order, b.order))


def test_geometric_series():
    g = geometric_series(6)
    one_minus_z = Poly([1, -1]).as_series(6)
    assert one_minus_z * g == Series.one(6)


def test_sqrt_two_routes_agree_and_square_back():
    rng = random.Random(404)
    for _ in range(20):
        coeffs = [Fraction(1)] + [rand_fraction(rng) for _ in range(14)]
        s = Series(coeffs)
        r1 = sqrt_newton(s)
        r2 = sqrt_binomial(s)
        assert r1 == r2
        assert r1 * r1 == s
        assert s.sqrt() == r1


def test_sqrt_of_one_minus_four_z():
    s = Poly([1, -4]).as_series(8).sqrt()
    # 1 - 2 sum binom(2n-2, n-1) z^n / n
    expected = [Fraction(1)] + [Fraction(-2 * comb(2 * n - 2, n - 1), n) for n in range(1, 9)]
    assert s == Series(expected)
    assert s.coeffs[:5] == (1, -2, -2, -4, -10)


def test_rational_power_square_root_matches_sqrt_routes():
    root = Series(rational_power([1, -4], Fraction(1, 2), 60))
    s = Poly([1, -4]).as_series(60)
    assert root == sqrt_newton(s) == sqrt_binomial(s)


def test_rational_power_negative_integer_power_is_reciprocal():
    a = Poly([1, -3, 0, 2, 5])
    for k in (1, 2, 5):
        got = Series(rational_power(a.coeffs, -k, 30))
        assert got == a.as_series(30).pow(k).reciprocal()


def test_rational_power_rejects_inexact_and_malformed_input():
    with pytest.raises(ArithmeticError):
        rational_power([1, 1], Fraction(1, 2), 3)  # (1+z)^(1/2) = 1 + z/2 - ...
    with pytest.raises(ValueError):
        rational_power([2, 1], Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        rational_power([1, Fraction(1, 2)], 2, 3)
    with pytest.raises(ValueError):
        rational_power([1, 1], 2, -1)


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.integers(-20, 20), min_size=0, max_size=6),
    order=st.integers(0, 25),
)
def test_rational_power_square_root_squares_back(u, order):
    # (1 + 4u)^(1/2) is an integer series for every integer polynomial u
    a = [1] + [4 * c for c in u]
    root = Series(rational_power(a, Fraction(1, 2), order))
    assert root * root == Poly(a).as_series(order)


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        Series([4, 1, 1]).sqrt()


def test_series_derivative():
    # d/dz 1/(1-z) = 1/(1-z)^2 = sum (i+1) z^i, one order lower
    assert geometric_series(6).derivative() == Series(range(1, 7))
    assert geometric_series(6).derivative() == geometric_series(5) * geometric_series(5)
    with pytest.raises(ValueError):
        Series([1]).derivative()


def test_compose_identity_and_known_case():
    rng = random.Random(606)
    z = Series([0, 1] + [0] * 11)
    for _ in range(10):
        f = rand_series(rng)
        assert f.compose(z) == f
    # 1/(1-z) composed with z/(1+z) gives 1+z
    inner = Poly([0, 1]).as_series(10).divide(Poly([1, 1]).as_series(10))
    assert geometric_series(10).compose(inner) == Poly([1, 1]).as_series(10)


def test_compose_associativity():
    rng = random.Random(707)
    for _ in range(10):
        f = rand_series(rng, 10)
        g = Series([0] + [rand_fraction(rng) for _ in range(10)])
        h = Series([0, rng.randint(1, 3)] + [rand_fraction(rng) for _ in range(9)])
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        Series([1, 1, 1]).compose(Series([1, 1, 1]))


def test_compose_rejects_short_outer():
    inner = Series([0, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        Series([1, 1]).compose(inner)


def test_compose_with_high_valuation_inner_accepts_short_outer():
    inner = Series([0, 0, 0, 1, 0, 0, 2])  # valuation 3, order 6
    outer = Series([5, 7, 11])
    got = outer.compose(inner)
    assert got.order == 6
    assert got.coeffs == (5, 0, 0, 7, 0, 0, 25)


def test_shift_up_down():
    s = Series([1, 2, 3])
    up = s.shift_up(2)
    assert up.order == 4
    assert up.coeffs == (0, 0, 1, 2, 3)
    assert up.shift_down(2) == s
    with pytest.raises(ArithmeticError):
        Series([1, 2]).shift_down(1)


def test_mul_poly_gains_valuation_order():
    s = Series([1, 1, 1])
    p = Poly([0, 0, 7])
    out = s.mul_poly(p)
    assert out.order == 4
    assert out.coeffs == (0, 0, 7, 7, 7)


def test_exp_series_functional_equation():
    e = exp_series(10)
    double = Series([0, 2] + [0] * 9)
    assert e.compose(double) == e * e


# -- bivariate series


def test_biseries_mul_matches_poly_model():
    rng = random.Random(808)
    for _ in range(10):
        terms_a = {(i, j): rng.randint(-3, 3) for i in range(3) for j in range(3)}
        terms_b = {(i, j): rng.randint(-3, 3) for i in range(3) for j in range(3)}
        a = BiSeries.from_terms(terms_a, 4, 4)
        b = BiSeries.from_terms(terms_b, 4, 4)
        prod = a * b
        for i in range(5):
            for j in range(5):
                want = sum(
                    terms_a.get((k, l), 0) * terms_b.get((i - k, j - l), 0)
                    for k in range(i + 1)
                    for l in range(j + 1)
                )
                assert prod.coeff(i, j) == want


def test_biseries_reciprocal():
    d = BiSeries.from_terms({(0, 0): 1, (1, 0): 1, (1, 1): -1}, 6, 6)
    assert d * d.reciprocal() == BiSeries.from_terms({(0, 0): 1}, 6, 6)


def test_biseries_compose_outer_geometric():
    # 1/(1-(x+y)) has coefficients binom(i+j, i)
    inner = BiSeries.from_terms({(1, 0): 1, (0, 1): 1}, 5, 5)
    got = inner.compose_outer(geometric_series(10))
    for i in range(6):
        for j in range(6):
            assert got.coeff(i, j) == comb(i + j, i)


def test_biseries_compose_outer_guard():
    inner = BiSeries.from_terms({(1, 0): 1, (0, 1): 1}, 5, 5)
    with pytest.raises(ValueError):
        inner.compose_outer(geometric_series(4))


def test_biseries_partial_derivatives():
    s = BiSeries.from_terms({(2, 3): 5, (1, 1): 2}, 4, 4)
    assert s.dx().coeff(1, 3) == 10
    assert s.dy().coeff(2, 2) == 15
    assert s.dx().coeff(0, 1) == 2
    assert s.dy().coeff(1, 0) == 2


def test_biseries_shifts_and_rows():
    s = BiSeries.from_terms({(0, 0): 1, (1, 2): 3}, 3, 3)
    up = s.shift_x(2)
    assert up.order_x == 5
    assert up.coeff(3, 2) == 3
    assert s.shift_y(1).coeff(1, 3) == 3
    assert s.row_series(2).coeffs == (0, 3, 0, 0)
