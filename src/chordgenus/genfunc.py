"""Generating functions for diagrams by genus, in exact arithmetic.

The genus-g generating function C_g(z) = sum_n c_g(n) z^n has the closed form

    C_g(z) = P_g(z) sqrt(1-4z) / (1-4z)^(3g) ,      g >= 1,

with P_g an integer polynomial of degree at most 3g-1 divisible by z^(2g) and
P_g(1/4) != 0.  This module produces P_g two independent ways: directly, by
multiplying the recursion-built series C_g by an odd power of sqrt(1-4z) and
truncating (the tail must vanish), and by a genus-raising pipeline that pushes
P_g through an exact first-order differential equation, partial fractions in
powers of (1-4z), and a Laurent-coefficient integration.  Bivariate
refinements by 1-chord number, shape generating functions, and the
macromolecular (minimum stack size sigma) series live here too.

The univariate counts come from the recursion as one dense int row per
genus (``recurrences.diagram_count_rows``).  The bivariate refinement
C_g(x, y), with y marking 1-chords, is built from that row in integers, not
by composing series:

- the y = 0 column is C_g(x, 0) = C_g(x/(1+x)^2) / (1+x), so
  c[i][0] = sum_k (-1)^(i-k) binom(i+k, 2k) c_g(k), O(n^2) per genus;
- every further column follows from the PDE
  (1 - x + xy) dC/dy = 2x^2 dC/dx + xC, which reads
  (j+1) c[i][j+1] = (j+1) c[i-1][j+1] + (2i-1-j) c[i-1][j]
  with each division checked exact, O(n^2) per genus;
- the shape series is the inverse stack inflation S_g(z, u) = C_g(z/(1+z), u),
  the binomial transform s[i][j] = sum_k (-1)^(i-k) binom(i-1, k-1) c[k][j],
  taken as an iterated difference table, O(n^3) additions per genus.

A series built from the PDE satisfies the PDE by construction, so the
compositions the paper writes, 1/(x+1-yx) C_g(x/(x+1-yx)^2) and its shape
analogue, are kept as the witnesses ``_diagram_bivariate_composed`` and
``_shape_bivariate_composed`` (about n^5 over Fractions).  The PDE residual
is taken on the composed witness, and the tests compare both routes.

The macromolecular series D_{g,sigma} = pre_sigma C_g(theta_sigma) is
expanded from the closed form: an integer polynomial times a rational power
of an integer polynomial, raised by ``series.rational_power`` in
O(order * degree) integer operations.  The term-by-term composition the
formula literally writes is cubic in the order over Fractions; it is kept as
``_macromolecular_series_composed``, the witness the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .bruteforce import GenusTable
from .recurrences import diagram_count_min_chords, diagram_count_rows
from .series import BiSeries, Poly, Series, _list_mul, geometric_series, rational_power

_W = Poly([1, -4])  # 1 - 4z


@dataclass(frozen=True)
class RationalFunction:
    """A ratio of exact polynomials, expandable as a series at 0."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    def to_series(self, order: int) -> Series:
        if self.den.coeff(0) == 0:
            raise ZeroDivisionError(
                "denominator vanishes at 0; no power series expansion"
            )
        return self.num.as_series(order).divide(self.den.as_series(order))


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------


def catalan_series(order: int) -> Series:
    """Genus-zero counts binom(2n,n)/(n+1), the Catalan numbers."""
    return Series([math.comb(2 * n, n) // (n + 1) for n in range(order + 1)])


def catalan_series_sqrt_form(order: int) -> Series:
    """(1 - sqrt(1-4z)) / (2z), expanded with series ops."""
    root = _W.as_series(order + 1).sqrt()
    return (Series.one(order + 1) - root).shift_down(1).scale(Fraction(1, 2))


def catalan_series_reciprocal_form(order: int) -> Series:
    """2 / (1 + sqrt(1-4z)), the conjugate form."""
    root = _W.as_series(order).sqrt()
    return root.add_scalar(1).reciprocal().scale(2)


def _int_coeffs(p: Poly) -> list[int]:
    if not p.is_integral():
        raise ArithmeticError(f"expected an integer polynomial, got {p.coeffs}")
    return [int(c) for c in p.coeffs]


@lru_cache(maxsize=None)
def _genus_row(g: int, n_max: int) -> tuple[int, ...]:
    if 2 * g > n_max:
        return (0,) * (n_max + 1)  # c_g(n) = 0 below n = 2g
    return tuple(diagram_count_rows(g, n_max)[g])


def genus_series(g: int, order: int) -> Series:
    """C_g(z) to the given order, from the counting recursion."""
    if g < 0 or order < 0:
        raise ValueError("g and order must be >= 0")
    return Series(_genus_row(g, order))


# ---------------------------------------------------------------------------
# the polynomial part P_g, direct route
# ---------------------------------------------------------------------------


def genus_polynomial_direct(g: int) -> Poly:
    """P_g = C_g(z) (1 - 2z C_0(z))^(6g-1), truncated; the tail must vanish.

    1 - 2z C_0(z) equals sqrt(1-4z), so this is the closed form read
    backwards; it stays in integer arithmetic throughout.
    """
    if g < 1:
        raise ValueError("the polynomial part is defined for g >= 1")
    order = 3 * g + 10
    c = genus_series(g, order)
    root = Series.one(order) - catalan_series(order).shift_up(1).scale(2).truncate(order)
    prod = c * root.pow(6 * g - 1)
    for k in range(3 * g, order + 1):
        if prod.coeff(k) != 0:
            raise ArithmeticError(
                f"tail coefficient z^{k} of C_{g} * (1-4z)^({6*g-1}/2) is "
                f"{prod.coeff(k)}, expected 0"
            )
    poly = Poly(prod.coeffs[: 3 * g])
    _check_genus_polynomial(poly, g)
    return poly


def _check_genus_polynomial(p: Poly, g: int) -> None:
    if not p.is_integral():
        raise ArithmeticError(f"P_{g} has a non-integer coefficient: {p.coeffs}")
    if p.degree > 3 * g - 1:
        raise ArithmeticError(f"P_{g} has degree {p.degree} > {3 * g - 1}")
    v = p.valuation()
    if v is None or v < 2 * g:
        raise ArithmeticError(f"P_{g} is not divisible by z^{2 * g}")
    if p(Fraction(1, 4)) == 0:
        raise ArithmeticError(f"P_{g}(1/4) = 0; the closed form would degenerate")
    if p.coeff(2 * g) != diagram_count_min_chords(g):
        raise ArithmeticError(
            f"lowest coefficient of P_{g} is {p.coeff(2 * g)}, "
            f"expected c_{g}({2 * g}) = {diagram_count_min_chords(g)}"
        )


# ---------------------------------------------------------------------------
# the genus-raising pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenusPolyRecord:
    """P_g with its reduced form and the pipeline data that produced it.

    ``partial_fractions`` holds A_j for j = 2 .. 3(g-1)+4, the coefficients of
    Q_{g-1}/(1-4z)^(3(g-1)+4) over the basis 1/(1-4z)^j; ``q_prev`` is
    Q_{g-1} itself.  Both are None on the base record g = 1.
    """

    g: int
    poly: Poly
    reduced: Poly
    q_prev: Poly | None = None
    partial_fractions: tuple[Fraction, ...] | None = None


def derived_numerators(p: Poly, g: int) -> tuple[Poly, Poly, Poly]:
    """The three derivative-ladder numerators over increasing powers of 1-4z."""
    p1 = _W * p.derivative() + p.scale(12 * g - 2)
    p2 = _W * p1.derivative() + p1.scale(12 * g + 2)
    p3 = _W * p2.derivative() + p2.scale(12 * g + 6)
    return p1, p2, p3


def q_polynomial(g: int) -> Poly:
    """Q_g, the numerator of the inhomogeneous term driving genus g+1."""
    return _q_from_poly(genus_polynomial(g), g)


def _q_from_poly(p: Poly, g: int) -> Poly:
    p1, p2, p3 = derived_numerators(p, g)
    q = (
        Poly.monomial(5, 4) * p3
        + Poly.monomial(4, 24) * _W * p2
        + Poly.monomial(3, 27) * _W ** 2 * p1
        + Poly.monomial(2, 3) * _W ** 3 * p
    )
    # the assembly allows degree 3g+4; the top two coefficients must cancel
    if q.coeff(3 * g + 3) != 0 or q.coeff(3 * g + 4) != 0:
        raise ArithmeticError(
            f"Q_{g} top coefficients did not cancel: "
            f"z^{3 * g + 3} -> {q.coeff(3 * g + 3)}, z^{3 * g + 4} -> {q.coeff(3 * g + 4)}"
        )
    if q.degree > 3 * g + 2:
        raise ArithmeticError(f"Q_{g} has degree {q.degree} > {3 * g + 2}")
    for h in range(2 * g + 2):
        if q.coeff(h) != 0:
            raise ArithmeticError(f"Q_{g} coefficient of z^{h} is nonzero")
    if q.coeff(2 * g + 2) == 0:
        raise ArithmeticError(f"Q_{g} coefficient of z^{2 * g + 2} vanishes")
    if q(Fraction(1, 4)) == 0:
        raise ArithmeticError(f"Q_{g}(1/4) = 0")
    return q


def _pipeline_step(rec: GenusPolyRecord) -> GenusPolyRecord:
    g = rec.g
    q = _q_from_poly(rec.poly, g)
    top = 3 * g + 4

    # partial fractions: rebase Q_g in powers of w = 1-4z (z = (1-w)/4), then
    # Q_g / w^top = sum_j A_j / w^j with A_j the rebased coefficient at top-j
    rebased = q.substitute(Fraction(1, 4), Fraction(-1, 4))
    a_by_j = {j: rebased.coeff(top - j) for j in range(2, top + 1)}

    # integration constant, route 1: the closed formula
    c_formula = -sum(aj / (4 * (j - 1)) for j, aj in a_by_j.items())
    # route 2: expand the antiderivative to order 2 in integer powers of w with
    # unknown C; C makes the z^1 coefficient of the numerator vanish
    base = [Fraction(0)] * 3
    for j, aj in a_by_j.items():
        for k, c in enumerate(rational_power(_W.coeffs, 1 - j, 2)):
            base[k] += c * aj / (4 * (j - 1))
    t = _list_mul(base, rational_power(_W.coeffs, Fraction(1, 2), 2), 1)
    c_series = t[1] / 2
    if c_formula != c_series:
        raise ArithmeticError(
            f"integration constant mismatch at g={g}: formula {c_formula}, "
            f"series {c_series}"
        )

    # Laurent assembly of P_{g+1}: sum_j A_j/(j-1) (w^(top-1) - w^(top-j)),
    # collected in powers of w (w^0 .. w^(top-2) from j = top .. 2, then
    # w^(top-1)) and expanded in z once, at w = 1-4z
    terms = [a_by_j[j] / (j - 1) for j in range(top, 1, -1)]
    inside = Poly([-t for t in terms] + [sum(terms)]).substitute(1, -4)
    if inside.coeff(0) != 0:
        raise ArithmeticError(
            f"z^0 of the Laurent assembly at g={g} is {inside.coeff(0)}, "
            "the 1/z term did not cancel"
        )
    p_next = inside.divide_by_power(1).scale(Fraction(-1, 4))
    _check_genus_polynomial(p_next, g + 1)
    reduced = p_next.divide_by_power(2 * (g + 1))
    if reduced(Fraction(1, 4)) == 0:
        raise ArithmeticError(f"R_{g + 1}(1/4) = 0")
    return GenusPolyRecord(
        g + 1,
        p_next,
        reduced,
        q_prev=q,
        partial_fractions=tuple(a_by_j[j] for j in range(2, top + 1)),
    )


@lru_cache(maxsize=None)
def _record(g: int) -> GenusPolyRecord:
    if g < 1:
        raise ValueError("records start at genus 1")
    if g == 1:
        base = Poly([0, 0, 1])  # z^2, pinned by the direct route in tests
        _check_genus_polynomial(base, 1)
        return GenusPolyRecord(1, base, Poly.one())
    # fill the cache bottom-up, so no call nests more than two deep
    for h in range(2, g):
        _record(h)
    return _pipeline_step(_record(g - 1))


def genus_polynomial_records(g_max: int) -> tuple[GenusPolyRecord, ...]:
    """Pipeline records for g = 1 .. g_max."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    return tuple(_record(g) for g in range(1, g_max + 1))


def genus_polynomial(g: int) -> Poly:
    """P_g from the pipeline."""
    return _record(g).poly


def reduced_genus_polynomial(g: int) -> Poly:
    """R_g = P_g / z^(2g); R_g(0) = c_g(2g) and R_g(1/4) != 0."""
    return _record(g).reduced


def genus_series_closed_form(g: int, order: int) -> Series:
    """Expand P_g (1-4z)^(1/2-3g); must reproduce genus_series."""
    if g < 1:
        raise ValueError("the closed form starts at genus 1")
    tail = rational_power(_W.coeffs, Fraction(1, 2) - 3 * g, order)
    return Series(_list_mul(_int_coeffs(genus_polynomial(g)), tail, order))


def ode_residual(g: int, order: int) -> Series:
    """Left side minus right side of the genus-raising differential equation.

    z(1-4z) C_g' + (1-2z) C_g = 4z^5 C''' + 24z^4 C'' + 27z^3 C' + 3z^2 C,
    the right side taken at genus g-1.  The residual must vanish identically.
    """
    if g < 1:
        raise ValueError("the differential equation relates g >= 1 to g-1")
    cur = genus_series(g, order + 3)
    prev = genus_series(g - 1, order + 3)
    lhs = cur.derivative().mul_poly(Poly([0, 1, -4])) + cur.mul_poly(Poly([1, -2]))
    d1 = prev.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    rhs = (
        d3.mul_poly(Poly.monomial(5, 4))
        + d2.mul_poly(Poly.monomial(4, 24))
        + d1.mul_poly(Poly.monomial(3, 27))
        + prev.mul_poly(Poly.monomial(2, 3))
    )
    return (lhs - rhs).truncate(order)


# ---------------------------------------------------------------------------
# bivariate refinements by 1-chord number
# ---------------------------------------------------------------------------


def _refined_rows(counts: Sequence[int], order_y: int) -> list[list[int]]:
    """c[i][j], diagrams with i chords and j 1-chords, from the counts c_g(i).

    The y = 0 column is the binomial sum over ``counts``; column j+1 comes
    from column j by the PDE step, every division checked exact.
    """
    grid = [[0] * (order_y + 1) for _ in counts]
    for i, row in enumerate(grid):
        acc = 0
        for k in range(i + 1):
            if counts[k]:
                term = math.comb(i + k, 2 * k) * counts[k]
                acc += -term if (i - k) & 1 else term
        row[0] = acc
    for j in range(order_y):
        for i in range(1, len(grid)):
            step, rem = divmod((2 * i - 1 - j) * grid[i - 1][j], j + 1)
            if rem:
                raise ArithmeticError(
                    f"PDE step produced a non-integer at x^{i} y^{j + 1}: "
                    f"{Fraction((2 * i - 1 - j) * grid[i - 1][j], j + 1)}"
                )
            grid[i][j + 1] = grid[i - 1][j + 1] + step
    return grid


def _deflated_rows(grid: list[list[int]]) -> list[list[int]]:
    """The rows of S(z, u) = C(z/(1+z), u), the inverse stack inflation.

    Row i >= 1 is the (i-1)-th forward difference of rows 1, 2, ... of C at
    its first entry, sum_k (-1)^(i-k) binom(i-1, k-1) c[k], built from a
    difference table in O(n^2) row subtractions.
    """
    out = [list(grid[0])]
    diff = grid[1:]
    while diff:
        out.append(list(diff[0]))
        diff = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(diff, diff[1:])]
    return out


def _check_orders(g: int, order_x: int, order_y: int) -> None:
    if g < 0:
        raise ValueError("g must be >= 0")
    if order_x < 0 or order_y < 0:
        raise ValueError("orders must be >= 0")


def diagram_bivariate_rows(g: int, order_x: int, order_y: int) -> list[list[int]]:
    """The coefficients of C_g(x, y) as int rows, ``rows[i][j]`` at x^i y^j."""
    _check_orders(g, order_x, order_y)
    return _refined_rows(_genus_row(g, order_x), order_y)


def shape_bivariate_rows(g: int, order_z: int, order_u: int) -> list[list[int]]:
    """The coefficients of S_g(z, u) as int rows, ``rows[i][j]`` at z^i u^j."""
    _check_orders(g, order_z, order_u)
    grid = _refined_rows(_genus_row(g, order_z), order_u)
    # below n = 2g the grid is zero, and a zero grid deflates to itself
    return _deflated_rows(grid) if 2 * g <= order_z else grid


def diagram_bivariate(g: int, order_x: int, order_y: int) -> BiSeries:
    """C_g(x, y) = 1/(x+1-yx) C_g(x/(x+1-yx)^2); y marks 1-chords.

    Built from the y = 0 column and the PDE; see the module docstring.
    """
    return BiSeries(diagram_bivariate_rows(g, order_x, order_y))


def shape_bivariate(g: int, order_z: int, order_u: int) -> BiSeries:
    """S_g(z, u) = (1+z)/(1+2z-zu) C_g(z(1+z)/(1+2z-zu)^2); u marks 1-chords.

    Built as C_g(z/(1+z), u) from the integer rows of C_g(x, y).
    """
    return BiSeries(shape_bivariate_rows(g, order_z, order_u))


def _diagram_bivariate_composed(g: int, order_x: int, order_y: int) -> BiSeries:
    """C_g(x, y) composed as the formula writes it, over Fractions.

    The witness for ``diagram_bivariate`` and the series the PDE residual is
    taken on.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    den = BiSeries.from_terms({(0, 0): 1, (1, 0): 1, (1, 1): -1}, order_x, order_y)
    inv = den.reciprocal()
    inner = (inv * inv).shift_x(1).truncate_to(order_x, order_y)
    outer = genus_series(g, order_x)
    return inner.compose_outer(outer) * inv


def _shape_bivariate_composed(g: int, order_z: int, order_u: int) -> BiSeries:
    """S_g(z, u) composed as the formula writes it; the witness for ``shape_bivariate``."""
    if g < 0:
        raise ValueError("g must be >= 0")
    den = BiSeries.from_terms({(0, 0): 1, (1, 0): 2, (1, 1): -1}, order_z, order_u)
    inv = den.reciprocal()
    inv2 = inv * inv
    inner = (inv2.shift_x(1) + inv2.shift_x(2)).truncate_to(order_z, order_u)
    outer = genus_series(g, order_z)
    comp = inner.compose_outer(outer)
    pref = (inv + inv.shift_x(1)).truncate_to(order_z, order_u)
    return comp * pref


def shape_bivariate_inflated(g: int, order_x: int, order_y: int) -> BiSeries:
    """S_g(x/(1-x), y): substituting the stack inflation must give C_g(x, y)."""
    s = shape_bivariate(g, order_x, order_y)
    u = geometric_series(order_x).shift_up(1).truncate(order_x)  # x/(1-x)
    cols = [s.row_series(j).compose(u) for j in range(order_y + 1)]
    return BiSeries(
        [[cols[j].coeffs[i] for j in range(order_y + 1)] for i in range(order_x + 1)]
    )


def bivariate_pde_residual(g: int, order_x: int, order_y: int) -> BiSeries:
    """Residual of dC/dy = x dC/dy + 2x^2 dC/dx + xC - xy dC/dy on C_g(x,y).

    Taken on the composed witness: ``diagram_bivariate`` is built from this
    PDE and satisfies it by construction.
    """
    c = _diagram_bivariate_composed(g, order_x + 2, order_y + 1)
    dy = c.dy()
    dx = c.dx()
    res = (
        dy
        - dy.shift_x(1)
        - dx.shift_x(2).scale(2)
        - c.shift_x(1)
        + dy.shift_x(1).shift_y(1)
    )
    return res.truncate_to(order_x, order_y)


# ---------------------------------------------------------------------------
# fibers of the shape projection
# ---------------------------------------------------------------------------


def fiber_series_shapes(s: int, t: int, order_x: int, order_y: int) -> BiSeries:
    """Full diagrams projecting to one fixed shape with s chords, t 1-chords.

    Every chord inflates to a stack of at least one, so the fiber counts as
    (x/(1-x))^s y^t.
    """
    if s < 1:
        raise ValueError("a shape fiber needs at least one chord")
    if not 0 <= t <= s:
        raise ValueError("1-chord count must lie in 0..s")
    if t > order_y:
        raise ValueError("order_y too small to hold y^t")
    u_pow = geometric_series(order_x).shift_up(1).truncate(order_x).pow(s)
    rows = []
    for i in range(order_x + 1):
        row = [Fraction(0)] * (order_y + 1)
        row[t] = u_pow.coeffs[i]
        rows.append(row)
    return BiSeries(rows)


def fiber_series_macromolecular(s: int, m: int, sigma: int, order: int) -> Series:
    """Macromolecular diagrams projecting to one fixed shape.

    The shape has s chords and m 1-chords; each chord inflates to a stack of
    at least sigma, each 1-chord needs at least one inserted vertex, and
    isolated vertices pad every gap, giving

        (1-z)^(-1) (z^(2 sigma) / ((1-z^2)(1-z)^2 - (2z-z^2) z^(2 sigma)))^s z^m.
    """
    if s < 1:
        raise ValueError("a shape fiber needs at least one chord")
    if not 0 <= m <= s:
        raise ValueError("1-chord count must lie in 0..s")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    dpoly = Poly([1, 0, -1]) * Poly([1, -1]) ** 2 - Poly([0, 2, -1]) * Poly.monomial(
        2 * sigma
    )
    core = dpoly.as_series(order).reciprocal().pow(s)
    padded = core * geometric_series(order)
    return padded.shift_up(2 * sigma * s + m).truncate(order)


# ---------------------------------------------------------------------------
# macromolecular series
# ---------------------------------------------------------------------------


def _q_sigma(sigma: int) -> Poly:
    # the stack kernel is u_sigma(z) = (z^2)^(sigma-1) / q_sigma(z)
    return Poly.monomial(2 * sigma) - Poly.monomial(2) + Poly.one()


def _n1_sigma(sigma: int) -> Poly:
    # u_sigma z^2 - z + 1 over the common denominator q_sigma
    return Poly.monomial(2 * sigma) + Poly([1, -1]) * _q_sigma(sigma)


def macromolecular_prefactor(sigma: int) -> RationalFunction:
    """1 / (u_sigma z^2 - z + 1) as a ratio of polynomials."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return RationalFunction(_q_sigma(sigma), _n1_sigma(sigma))


def macromolecular_argument(sigma: int) -> RationalFunction:
    """theta_sigma(z) = u_sigma z^2 / (u_sigma z^2 - z + 1)^2."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return RationalFunction(
        Poly.monomial(2 * sigma) * _q_sigma(sigma), _n1_sigma(sigma) ** 2
    )


def macromolecular_series(g: int, sigma: int, order: int) -> Series:
    """D_{g,sigma}(z): genus-g diagrams, no 1-chords, stacks of >= sigma.

    D_{g,sigma} = pre_sigma C_g(theta_sigma), expanded from the closed form of
    C_g.  With q = z^(2 sigma) - z^2 + 1, n1 = z^(2 sigma) + (1-z) q and
    Delta = n1^2 - 4 z^(2 sigma) q one has pre_sigma = q/n1 and
    1 - 4 theta_sigma = Delta/n1^2, so for P_g = sum_k p_k z^k

        D_{g,sigma} = [sum_k p_k z^(2 sigma k) q^(k+1) n1^(6g-2-2k)] Delta^(1/2-3g),
        D_{0,sigma} = (n1 - Delta^(1/2)) / (2 z^(2 sigma)).

    The bracket is a polynomial because deg P_g <= 3g-1.  The power of Delta
    comes from ``rational_power``, so the cost is O(order * (deg Delta +
    deg bracket)) integer operations; the genus-0 shift and halving are
    checked to be exact.  The term-by-term composition is cubic in the order
    and is kept as ``_macromolecular_series_composed``, the witness the tests
    compare against.  Defined for g >= 1 by the theory; g = 0 is exposed as
    an extension and checked against the oracle informationally.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    q, n1 = _q_sigma(sigma), _n1_sigma(sigma)
    shift = 2 * sigma
    delta = n1 * n1 - Poly.monomial(shift, 4) * q
    if g == 0:
        num = [-r for r in rational_power(delta.coeffs, Fraction(1, 2), order + shift)]
        for i, c in enumerate(_int_coeffs(n1)[: order + shift + 1]):
            num[i] += c
        if any(c % 2 for c in num):
            raise ArithmeticError("n1 - Delta^(1/2) has an odd coefficient")
        return Series([c // 2 for c in num]).shift_down(shift)
    # the bracket, in integers and truncated at the order
    qi, n1i = _int_coeffs(q), _int_coeffs(n1)
    bracket = [0] * (order + 1)
    for k, pk in enumerate(_int_coeffs(genus_polynomial(g))):
        if not pk or shift * k > order:
            continue
        term = [0] * (shift * k) + [pk]
        for factor in [qi] * (k + 1) + [n1i] * (6 * g - 2 - 2 * k):
            term = _list_mul(term, factor, min(order, len(term) + len(factor) - 2))
        for i, c in enumerate(term):
            bracket[i] += c
    tail = rational_power(delta.coeffs, Fraction(1, 2) - 3 * g, order)
    return Series(_list_mul(bracket, tail, order))


def _macromolecular_series_composed(g: int, sigma: int, order: int) -> Series:
    """D_{g,sigma} as the paper writes it: prefactor times C_g(theta_sigma).

    Composes the recursion-built C_g with theta_sigma term by term over
    Fractions, cubic in the order; the tests' witness for
    ``macromolecular_series``.
    """
    pre = macromolecular_prefactor(sigma).to_series(order)
    theta = macromolecular_argument(sigma).to_series(order)
    if theta.coeffs[0] != 0:
        raise ArithmeticError("theta_sigma must vanish at 0")
    v = theta.valuation()
    if v is None:
        return pre.scale(genus_series(g, 0).coeffs[0])
    outer = genus_series(g, order // v)
    return outer.compose(theta) * pre


def macromolecular_series_fiber_sum(
    g: int, sigma: int, order: int, shapes: GenusTable
) -> Series:
    """D_{g,sigma} as the sum of fiber series over genus-g shapes.

    ``shapes`` must be a joint (genus, chords, 1-chords) shape table covering
    every shape with 2*sigma*s + m <= order; an oracle table works.
    """
    if shapes.class_tag != "shape" or not shapes.with_onechords:
        raise ValueError("need a joint shape table with 1-chord counts")
    s_needed = order // (2 * sigma)
    if shapes.n_max < s_needed:
        raise ValueError(
            f"shape table covers chords <= {shapes.n_max}, need {s_needed} "
            f"for order {order}"
        )
    out = Series.zero(order)
    if g == 0:
        out = out + geometric_series(order)  # the empty shape's fiber
    for (gg, s, m), cnt in sorted(shapes.entries.items()):
        if gg != g or cnt == 0 or s == 0:
            continue
        if 2 * sigma * s + m > order:
            continue
        out = out + fiber_series_macromolecular(s, m, sigma, order).scale(cnt)
    return out


def diagram_bivariate_fiber_sum(
    g: int, order_x: int, order_y: int, shapes: GenusTable
) -> BiSeries:
    """C_g(x, y) as the sum of (x/(1-x))^s y^t over genus-g shapes."""
    if shapes.class_tag != "shape" or not shapes.with_onechords:
        raise ValueError("need a joint shape table with 1-chord counts")
    if shapes.n_max < order_x:
        raise ValueError(
            f"shape table covers chords <= {shapes.n_max}, need {order_x}"
        )
    out = BiSeries.zero(order_x, order_y)
    if g == 0:
        out = out + BiSeries.from_terms({(0, 0): 1}, order_x, order_y)
    for (gg, s, t), cnt in sorted(shapes.entries.items()):
        if gg != g or cnt == 0 or s == 0:
            continue
        if s > order_x or t > order_y:
            continue
        out = out + fiber_series_shapes(s, t, order_x, order_y).scale(cnt)
    return out
