"""Counting diagrams by genus through recursions and printed closed forms.

The central table c_g(n) (full diagrams with n chords and genus g) is built
from the three-term recursion

    (n+1) c_g(n) = 2(2n-1) c_g(n-1) + (2n-1)(n-1)(2n-3) c_{g-1}(n-2)

whose g=0 row reproduces the Catalan numbers.  The division by n+1 must be
exact at every step, and that exactness is asserted.  ``diagram_count_rows``
is the one kernel: it keeps the table as one dense list per genus and fills
c_g(n) only where 2g <= n, in O(g_max * n_max) steps with no tuple keys or
dict probes.  Its counts are ints by default; ``diagram_count_table`` wraps
those rows into a ``GenusTable``, ``diagram_count`` reads one cell, and the
generating-function layer reads whole rows.  ``table cg`` runs the same
steps on ``decimal.Decimal`` instead: CPython 3.11 turns an int into its
decimal string in time quadratic in its digits, while libmpdec keeps base
10**19 limbs and prints in linear time, so a table of counts with hundreds
of digits prints several times faster.  The module also carries
the boundary-component polynomials p(n, x) with

    1 + 2 sum_{n>=0} p(n, x) z^{n+1} = ((1+z)/(1-z))^x ,

so that (2n-1)!! p(n, N) = sum_g c_g(n) N^(n+1-2g) (Harer and Zagier, 1986).
They are built three ways.  ``boundary_polynomial`` builds row n alone from
the closed form p(n, x) = sum_k 2^(k-1) C(n, k-1) C(x, k), by one integer
Horner pass in O(n^2) big-int operations; ``poly hz`` prints this row.  Two
table routes witness it in ``verify hz``: the additive recursion, which in
the binomial basis C(x, k) is one integer step per row and solves to that
closed form, with each row converted to monomials for O(n_max^3) in all;
and, independently, the series exponential of x log((1+z)/(1-z)).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .bruteforce import GenusTable, double_factorial_odd
from .series import BiSeries, Poly, Series, _list_mul, exp_series


# Decimal arithmetic that can never round: any result that would need
# rounding raises ``decimal.Inexact`` (an ``ArithmeticError``) instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)


def diagram_count_rows(g_max: int, n_max: int, number: type = int) -> list[list]:
    """c_g(n) as one list per genus: ``rows[g][n]`` for g <= g_max, n <= n_max.

    The rows are pre-filled with zeros, and only g <= min(g_max, n // 2) is
    computed; row g needs nothing but rows g and g-1.  Every count has the
    type ``number``: ``int`` (the default) or ``decimal.Decimal``, whose
    ``str`` is linear in the digits where an int's is quadratic.  Only the
    zeros and the seed take the type; the steps are the same for both.  They
    run in an exact Decimal context of their own, so a caller's context can
    never round a count, and a count that would need rounding raises
    ``ArithmeticError``.
    """
    if g_max < 0 or n_max < 0:
        raise ValueError("g_max and n_max must be >= 0")
    zero = number(0)
    rows = [[zero] * (n_max + 1) for _ in range(g_max + 1)]
    rows[0][0] = number(1)
    with decimal.localcontext(_EXACT):
        for g in range(min(g_max, n_max // 2) + 1):
            row, prev = rows[g], rows[g - 1] if g else None
            for n in range(max(2 * g, 1), n_max + 1):
                acc = 2 * (2 * n - 1) * row[n - 1]
                if g:
                    acc += (2 * n - 1) * (n - 1) * (2 * n - 3) * prev[n - 2]
                value, rem = divmod(acc, n + 1)
                if rem:
                    raise ArithmeticError(
                        f"recursion produced a non-integer at g={g}, n={n}: {acc}/{n + 1}"
                    )
                row[n] = value
    return rows


def diagram_count_table(g_max: int, n_max: int) -> GenusTable:
    """c_g(n) for g <= g_max, n <= n_max, zeros stored explicitly."""
    rows = diagram_count_rows(g_max, n_max)
    entries = {(g, n): v for g, row in enumerate(rows) for n, v in enumerate(row)}
    return GenusTable("full", n_max, entries, g_max=g_max)


def diagram_count(g: int, n: int) -> int:
    """c_g(n) through the recursion."""
    if g < 0 or n < 0:
        raise ValueError("g and n must be >= 0")
    return diagram_count_rows(g, n)[g][n]


def diagram_count_closed_form(g: int, n: int) -> int:
    """The printed closed forms for genus 1, 2, 3; exact integers."""
    if n < 2 * g:
        raise ValueError(f"closed form needs n >= 2g, got g={g}, n={n}")
    df = double_factorial_odd(n)
    if g == 1:
        val = Fraction(2 ** (n - 2) * df, 3 * math.factorial(n - 2))
    elif g == 2:
        val = Fraction(2 ** (n - 4) * (5 * n - 2) * df, 90 * math.factorial(n - 4))
    elif g == 3:
        val = Fraction(
            2 ** (n - 6) * (35 * n * n - 77 * n + 12) * df,
            5670 * math.factorial(n - 6),
        )
    else:
        raise ValueError("closed forms are available for g in {1, 2, 3}")
    if val.denominator != 1:
        raise ArithmeticError(f"closed form not integral at g={g}, n={n}: {val}")
    return val.numerator


def diagram_count_min_chords(g: int) -> int:
    """c_g(2g), the count at the least chord number supporting genus g."""
    if g < 0:
        raise ValueError("g must be >= 0")
    num = math.factorial(4 * g)
    den = 4 ** g * math.factorial(2 * g + 1)
    if num % den:
        raise ArithmeticError(f"c_g(2g) not integral at g={g}")
    return num // den


def min_chords_egf(order: int) -> Series:
    """sum_g c_g(2g) x^(2g) / (2g)! as a truncated series."""
    coeffs = [Fraction(0)] * (order + 1)
    for g in range(order // 2 + 1):
        coeffs[2 * g] = Fraction(diagram_count_min_chords(g), math.factorial(2 * g))
    return Series(coeffs)


def min_chords_egf_closed(order: int) -> Series:
    """(sqrt(1+2x) - sqrt(1-2x)) / (2x), expanded with exact series ops."""
    plus = Poly([1, 2]).as_series(order + 1).sqrt()
    minus = Poly([1, -2]).as_series(order + 1).sqrt()
    return (plus - minus).shift_down(1).scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# boundary-component polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPolyTable:
    """Rows p(0, x), p(1, x), ... of the boundary-component polynomials."""

    rows: tuple[Poly, ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def poly(self, n: int) -> Poly:
        return self.rows[n]

    def evaluate(self, n: int, x: int | Fraction) -> Fraction:
        return self.rows[n](x)


def boundary_polynomial(n: int) -> Poly:
    """p(n, x) alone, from the closed form in the binomial basis.

    With b_k = 2^(k-1) C(n, k-1) (b_0 = 0), p(n, x) = sum_k b_k C(x, k) is
    evaluated by Horner's scheme in the falling-factorial basis, scaled to
    integers: H_(n+1) = b_(n+1) = 2^n, H_k = b_k (n+1)!/k! + (x - k) H_(k+1),
    and p = H_0 / (n+1)!.  Each step is one pass over the coefficient list,
    so the row costs O(n^2) big-int operations and no other row is built.
    ``poly hz`` prints this row; ``boundary_polynomials`` and
    ``boundary_polynomials_independent`` are its witnesses.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    h, scale = [2 ** n], 1  # scale = (n+1)!/k!
    for k in range(n, -1, -1):
        scale *= k + 1
        h = [lo - k * hi for lo, hi in zip([0] + h, h + [0])]  # (x - k) H_(k+1)
        if k:
            h[0] += 2 ** (k - 1) * math.comb(n, k - 1) * scale
    return Poly(Fraction(c, scale) for c in h)


def boundary_polynomials(n_max: int) -> BoundaryPolyTable:
    """p(n, x) from the recursion p(n,x) = p(n,x-1) + p(n-1,x) + p(n-1,x-1).

    In the binomial basis p(n, x) = sum_k b_n[k] C(x, k) the difference in x
    is an index shift, C(x, k) - C(x-1, k) = C(x-1, k-1), so with p(n, 0) = 0
    the recursion is the integer step b_n[k] = b_{n-1}[k] + 2 b_{n-1}[k-1]
    from b_0 = [0, 1], O(n) additions per row.  Each row goes to monomials
    once: sum_k b_n[k] (n+1)!/k! x(x-1)...(x-k+1) in integers, over (n+1)!,
    so the table costs O(n_max^3) big-int operations.  It is the recursion
    witness of ``verify hz``; ``boundary_polynomial`` prints a single row.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    falling = [[1]]  # x(x-1)...(x-k+1), lowest degree first
    for k in range(1, n_max + 2):
        falling.append(_list_mul(falling[-1], [1 - k, 1], k))
    b, rows = [0, 1], []
    for n in range(n_max + 1):
        if n:
            b = [0] + [x + 2 * y for x, y in zip(b[1:] + [0], b)]
        den = math.factorial(n + 1)
        num = [0] * (n + 2)
        for k, bk in enumerate(b):
            scale = bk * (den // math.factorial(k))
            for j, c in enumerate(falling[k]):
                num[j] += scale * c
        rows.append(Poly(Fraction(c, den) for c in num))
    return BoundaryPolyTable(tuple(rows))


def boundary_polynomials_independent(n_max: int) -> BoundaryPolyTable:
    """p(n, x) from ((1+z)/(1-z))^x = exp(x log((1+z)/(1-z))), no recursion.

    The exponential is taken with polynomial-in-x coefficients, realized as a
    bivariate series in (z, x).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nz = n_max + 1
    nx = n_max + 1
    log_terms = {
        (k, 1): Fraction(2, k) for k in range(1, nz + 1, 2)
    }  # x * log((1+z)/(1-z))
    inner = BiSeries.from_terms(log_terms, nz, nx)
    expanded = inner.compose_outer(exp_series(nz))
    if expanded.coeff(0, 0) != 1 or any(expanded.coeff(0, j) for j in range(1, nx + 1)):
        raise ArithmeticError("constant term of ((1+z)/(1-z))^x is not 1")
    rows = []
    for n in range(n_max + 1):
        coeffs = [expanded.coeff(n + 1, j) / 2 for j in range(nx + 1)]
        rows.append(Poly(coeffs))
    return BoundaryPolyTable(tuple(rows))
