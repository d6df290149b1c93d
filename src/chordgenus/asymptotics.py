"""Asymptotics of the counting sequences, kept in exact arithmetic.

The genus-g counts grow like

    c_g(n) ~ K_g / sqrt(pi) * n^(3g - 3/2) * 4^n,

with K_g = P_g(1/4) * 4^(3g-1) * (3g-1)! / (6g-2)! an exact rational.  The
macromolecular growth rate is the reciprocal of the smallest positive root of
an explicit polynomial; that root is isolated with a Sturm chain and narrowed
by exact bisection, so every numeric claim here is a rational interval rather
than a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .genfunc import genus_coeffs, genus_polynomial, macromolecular_argument, macromolecular_coeffs
from .recurrences import diagram_count, diagram_count_closed_form
from .series import Poly, poly_divmod, poly_gcd

# pi to twenty decimal places, bracketed from both sides
PI_LO = Fraction(314159265358979323846, 10 ** 20)
PI_HI = Fraction(314159265358979323847, 10 ** 20)

DEFAULT_WIDTH = Fraction(1, 10 ** 12)


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def within(self, other: "RationalInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0:
            raise ZeroDivisionError("reciprocal needs a strictly positive interval")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def bracket_sqrt(x: Fraction, width: Fraction = DEFAULT_WIDTH) -> RationalInterval:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= width.

    The bracket is the one bisection of [0, max(1, x)] would end on: with
    top = max(1, x) and k the fewest halvings that take top to at most width,
    lo = top*m/2^k for the largest m < 2^k with (top*m/2^k)^2 <= x.
    """
    x = Fraction(x)
    width = Fraction(width)
    if x < 0:
        raise ValueError("cannot bracket the square root of a negative number")
    if width <= 0:
        raise ValueError("bracket width must be positive")
    if x == 0:
        return RationalInterval(Fraction(0), Fraction(0))
    top = max(Fraction(1), x)
    halvings = top / width
    k = (-(-halvings.numerator // halvings.denominator) - 1).bit_length()
    m = min(math.isqrt(math.floor(x * 4 ** k / (top * top))), 2 ** k - 1)
    return RationalInterval(top * m / 2 ** k, top * (m + 1) / 2 ** k)


def sqrt_interval(iv: RationalInterval) -> RationalInterval:
    """An interval containing sqrt of every point of a nonnegative interval."""
    return RationalInterval(bracket_sqrt(iv.lo).lo, bracket_sqrt(iv.hi).hi)


# ---------------------------------------------------------------------------
# leading constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_pi() -> RationalInterval:
    """sqrt(pi) bracketed from PI_LO and PI_HI, built on first use."""
    return sqrt_interval(RationalInterval(PI_LO, PI_HI))


@dataclass(frozen=True)
class AsymptoticEstimate:
    """c_g(n) ~ rational_factor / sqrt(pi) * n^power * growth^n."""

    g: int
    power: Fraction
    growth: int
    rational_factor: Fraction
    constant_interval: RationalInterval


def leading_constant(g: int) -> AsymptoticEstimate:
    """The exact leading coefficient of the genus-g growth law.

    The half-integer gamma value folds into factorials:
    Gamma(3g - 1/2) = (6g-2)! / (4^(3g-1) (3g-1)!) * sqrt(pi).
    """
    if g < 1:
        raise ValueError("the growth law starts at genus 1")
    k = (
        genus_polynomial(g)(Fraction(1, 4))
        * 4 ** (3 * g - 1)
        * math.factorial(3 * g - 1)
        / math.factorial(6 * g - 2)
    )
    root_pi = _root_pi()
    interval = RationalInterval(k / root_pi.hi, k / root_pi.lo)
    return AsymptoticEstimate(
        g=g,
        power=Fraction(6 * g - 3, 2),
        growth=4,
        rational_factor=k,
        constant_interval=interval,
    )


def _count(g: int, n: int) -> int:
    if 1 <= g <= 3 and n >= 2 * g:
        return diagram_count_closed_form(g, n)
    return diagram_count(g, n)


def asymptotic_ratio_interval(g: int, n: int) -> RationalInterval:
    """Bounds on (c_g(n) / (n^(3g-3/2) 4^n)) / (K_g / sqrt(pi)).

    The half-integer power of n and sqrt(pi) both disappear after squaring,
    so the squared ratio is exact and only the final square root widens the
    answer, by at most ``DEFAULT_WIDTH`` on each side.
    """
    est = leading_constant(g)
    c = Fraction(_count(g, n))
    ratio_sq = c * c / (Fraction(n) ** (6 * g - 3) * Fraction(16) ** n)
    rel_sq = RationalInterval(
        ratio_sq * PI_LO / est.rational_factor ** 2,
        ratio_sq * PI_HI / est.rational_factor ** 2,
    )
    return sqrt_interval(rel_sq)


# ---------------------------------------------------------------------------
# root isolation by Sturm chains
# ---------------------------------------------------------------------------


def _signs_at(chain: list[Poly], x: Fraction) -> int:
    variations = 0
    prev = 0
    for p in chain:
        s = p(x)
        s = 0 if s == 0 else (1 if s > 0 else -1)
        if s != 0:
            if prev != 0 and s != prev:
                variations += 1
            prev = s
    return variations


def sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm chain of the square-free part of p."""
    sf = p
    g = poly_gcd(p, p.derivative())
    if g.degree > 0:
        sf, rem = poly_divmod(p, g)
        if not rem.is_zero():
            raise ArithmeticError("gcd did not divide its polynomial")
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero():
        _, rem = poly_divmod(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return chain


def count_roots_in(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = sturm_chain(p)
    return _signs_at(chain, lo) - _signs_at(chain, hi)


@dataclass(frozen=True)
class RootIsolation:
    """A certified bracket around the smallest positive root of a polynomial."""

    polynomial: Poly
    lo: Fraction
    hi: Fraction
    exact: bool = False

    def interval(self) -> RationalInterval:
        return RationalInterval(self.lo, self.hi)

    def reciprocal_interval(self) -> RationalInterval:
        return self.interval().reciprocal()


def smallest_positive_root(p: Poly) -> RootIsolation:
    """Isolate the smallest positive root of p, certified by a Sturm chain.

    With V(x) the sign variations of the chain at x, V(0) - V(x) counts the
    distinct roots in (0, x].  Bisection of (0, 2] by that count keeps the
    lower half whenever it holds a root, until the cell (lo, hi] holds one
    root; bisection on the square-free part (the chain's head, whose roots
    are those of p, each simple) halves the same dyadic cells from there
    until the bracket is below ``DEFAULT_WIDTH``.  A root hit exactly on hi
    or on a bisection midpoint is returned with zero width.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if p(Fraction(0)) == 0:
        raise ValueError("polynomial vanishes at 0; divide out the power of z first")
    chain = sturm_chain(p)
    lo, hi = Fraction(0), Fraction(2)
    v0, v_hi = _signs_at(chain, lo), _signs_at(chain, hi)
    if v_hi == v0:
        raise ArithmeticError(f"no root in (0, {hi}]")
    # no root in (0, lo], at least one in (lo, hi]
    while v0 - v_hi > 1:
        mid = (lo + hi) / 2
        v = _signs_at(chain, mid)
        if v == v0:
            lo = mid
        else:
            hi, v_hi = mid, v
    sf = chain[0]
    if sf(hi) == 0:
        return RootIsolation(p, hi, hi, exact=True)
    flo = sf(lo)
    while hi - lo > DEFAULT_WIDTH:
        mid = (lo + hi) / 2
        fmid = sf(mid)
        if fmid == 0:
            return RootIsolation(p, mid, mid, exact=True)
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return RootIsolation(p, lo, hi)


def singularity_polynomial(sigma: int) -> Poly:
    """Clearing denominators in theta_sigma(z) = 1/4 gives this polynomial.

    Its smallest positive root is the dominant singularity of every
    D_{g,sigma} with g >= 1.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    theta = macromolecular_argument(sigma)
    return theta.num.scale(4) - theta.den


@lru_cache(maxsize=None)
def dominant_singularity(sigma: int) -> RootIsolation:
    """The dominant singularity rho_sigma of the macromolecular series."""
    return smallest_positive_root(singularity_polynomial(sigma))


def macromolecular_growth_interval(sigma: int) -> RationalInterval:
    """Bounds on the exponential growth rate 1/rho_sigma."""
    return dominant_singularity(sigma).reciprocal_interval()


# ---------------------------------------------------------------------------
# empirical growth ratios
# ---------------------------------------------------------------------------


def empirical_growth_ratio(coeffs, n: int) -> Fraction:
    """a(n) / a(n-1) for the largest index <= n with both terms nonzero."""
    k = n
    while k >= 1 and (coeffs[k] == 0 or coeffs[k - 1] == 0):
        k -= 1
    if k < 1:
        raise ValueError(f"no adjacent nonzero pair at or below index {n}")
    return Fraction(coeffs[k], coeffs[k - 1])


def diagram_growth_ratio(g: int, n: int) -> Fraction:
    """c_g(n) / c_g(n-1), the empirical counterpart of the growth base 4."""
    return empirical_growth_ratio(genus_coeffs(g, n), n)


def macromolecular_growth_ratio(g: int, sigma: int, n: int) -> Fraction:
    """d_{g,sigma}(n) / d_{g,sigma}(n-1), computed from the closed form."""
    return empirical_growth_ratio(macromolecular_coeffs(g, sigma, n), n)
