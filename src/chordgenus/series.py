"""Exact polynomial and truncated power series arithmetic over the rationals.

Everything here is built on ``fractions.Fraction``; no floating point enters.
A ``Series`` knows the truncation order it is exact to and refuses to produce
coefficients it cannot guarantee.  ``Poly`` is an exact polynomial, and
``BiSeries`` is a truncated series in two variables on a rectangular
coefficient grid.  Two kernels run on Python ints: ``rational_power`` raises
an integer polynomial to a rational power with checked exact division, and
the Taylor shift behind ``Poly.substitute``, the one change of polynomial
basis, rewrites p(z) as p(a + b z).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _f(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Polynomial with exact rational coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [_f(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (type(self), (self.coeffs,))

    # -- constructors

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    # -- basic queries

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for the zero poly."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        return Poly(_list_mul(a, b, len(a) + len(b) - 2))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(Poly.one(), self, k)

    def scale(self, c: Scalar) -> "Poly":
        c = _f(c)
        return Poly(tuple(c * a for a in self.coeffs))

    def shift_up(self, k: int) -> "Poly":
        """Multiply by z**k."""
        if k < 0:
            raise ValueError("shift_up wants k >= 0")
        if self.is_zero():
            return self
        return Poly((_ZERO,) * k + self.coeffs)

    def divide_by_power(self, k: int) -> "Poly":
        """Divide exactly by z**k; the low coefficients must vanish."""
        if any(self.coeff(i) for i in range(k)):
            raise ArithmeticError(
                f"polynomial not divisible by z^{k}: low coefficients {self.coeffs[:k]}"
            )
        return Poly(self.coeffs[k:])

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, z: Scalar) -> Fraction:
        z = _f(z)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def substitute(self, a: Scalar, b: Scalar) -> "Poly":
        """self(a + b*z), exact: the one change of polynomial basis.

        With u = (b/a) z, self(a + b z) = sum_i (p_i a^i) (1 + u)^i.  The
        coefficients p_i a^i are put over one denominator and Taylor-shifted
        by 1 in O(d^2) integer additions (Knuth, TAOCP vol. 2, 4.6.4); then
        coefficient k is scaled by (b/a)^k.  With a = 0 it only scales.
        """
        a, b = _f(a), _f(b)
        if not a:
            return Poly(c * b ** i for i, c in enumerate(self.coeffs))
        scaled = [c * a ** i for i, c in enumerate(self.coeffs)]
        den = math.lcm(*(c.denominator for c in scaled))
        shifted = [c.numerator * (den // c.denominator) for c in scaled]
        for i in range(len(shifted) - 1):
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += shifted[j + 1]
        ratio = b / a
        return Poly(Fraction(c, den) * ratio ** k for k, c in enumerate(shifted))

    def as_series(self, order: int) -> "Series":
        """The polynomial viewed as a series; exact to any order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        c = list(self.coeffs[: order + 1])
        c += [_ZERO] * (order + 1 - len(c))
        return Series(c)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lb = b.degree, b.coeffs[-1]
    quo = [_ZERO] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        q = rem[-1] / lb
        quo[k] = q
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= q * c
        rem.pop()
    return Poly(quo), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over the rationals."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.coeffs[-1])


# ---------------------------------------------------------------------------
# univariate truncated series
# ---------------------------------------------------------------------------


def _list_mul(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    # coefficients 0..n of the product, skipping zero entries; the int seed
    # keeps integer operands in integers
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if i > n:
            break
        if not ai:
            continue
        jmax = n - i
        for j, bj in enumerate(b[: jmax + 1]):
            if bj:
                out[i + j] += ai * bj
    return out


def _power(unit, base, k: int):
    # base**k by square-and-multiply, for k >= 0; unit is the identity of
    # base's ring (Poly.one(), or Series.one at base's order)
    result = unit
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _list_div(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    # coefficients 0..n of a/b; b[0] must be nonzero
    b0 = b[0]
    if not b0:
        raise ZeroDivisionError("series division by a series with zero constant term")
    out = [_ZERO] * (n + 1)
    for k in range(n + 1):
        acc = a[k] if k < len(a) else _ZERO
        for i in range(1, min(k, len(b) - 1) + 1):
            bi = b[i]
            if bi:
                acc -= bi * out[k - i]
        out[k] = acc / b0
    return out


class Series:
    """Power series truncated at a known order, all coefficients exact.

    ``coeffs`` has length ``order + 1``.  Arithmetic follows the rule that a
    result's order is the largest order to which it is provably exact given
    the operands; for plain add/sub/mul that is the minimum of the operand
    orders.  Operations that cannot deliver a single exact coefficient raise.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        c = tuple(_f(x) for x in coeffs)
        if not c:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return (type(self), (self.coeffs,))

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([_ZERO] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([_ONE] + [_ZERO] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            return _ZERO
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Series", self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}], order={self.order})"

    # -- structural ops

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def shift_up(self, k: int) -> "Series":
        """Multiply by z**k; the result is exact to order + k."""
        if k < 0:
            raise ValueError("shift_up wants k >= 0")
        return Series((_ZERO,) * k + self.coeffs)

    def shift_down(self, k: int) -> "Series":
        """Divide exactly by z**k; the first k coefficients must be zero."""
        if k == 0:
            return self
        if k > self.order:
            raise ValueError("shift_down beyond the truncation order")
        if any(self.coeffs[:k]):
            raise ArithmeticError(
                f"series not divisible by z^{k}: low coefficients {self.coeffs[:k]}"
            )
        return Series(self.coeffs[k:])

    # -- ring ops

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(_list_mul(self.coeffs, other.coeffs, n))

    def scale(self, c: Scalar) -> "Series":
        c = _f(c)
        return Series(tuple(c * a for a in self.coeffs))

    def add_scalar(self, c: Scalar) -> "Series":
        out = list(self.coeffs)
        out[0] += _f(c)
        return Series(out)

    def mul_poly(self, p: Poly) -> "Series":
        """Multiply by a polynomial.

        Exact to order + valuation(p): the unknown tail of the series only
        feeds coefficients above that.
        """
        v = p.valuation()
        if v is None:
            return Series.zero(self.order)
        n = self.order + v
        return Series(_list_mul(p.coeffs, self.coeffs, n))

    def pow(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative series power; use reciprocal first")
        return _power(Series.one(self.order), self, k)

    # -- analytic ops

    def derivative(self) -> "Series":
        if self.order < 1:
            raise ValueError("derivative needs truncation order >= 1")
        return Series([i * self.coeffs[i] for i in range(1, self.order + 1)])

    def reciprocal(self) -> "Series":
        return Series(_list_div([_ONE], self.coeffs, self.order))

    def divide(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(_list_div(self.coeffs, other.coeffs, n))

    def compose(self, inner: "Series") -> "Series":
        """self(inner(z)), truncated to order(inner).

        The inner series must kill its constant term.  Raises when the outer
        series is too short for every reported coefficient to be exact.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = inner.order
        v = inner.valuation()
        if v is None:
            return Series([self.coeffs[0]] + [_ZERO] * n)
        k_needed = n // v
        if self.order < k_needed:
            raise ValueError(
                f"outer series order {self.order} too small: composition to order {n} "
                f"with inner valuation {v} needs outer order {k_needed}"
            )
        out = [_ZERO] * (n + 1)
        out[0] = self.coeffs[0]
        power = [_ONE] + [_ZERO] * n
        for k in range(1, k_needed + 1):
            power = _list_mul(power, inner.coeffs, n)
            ck = self.coeffs[k]
            if ck:
                for i in range(k * v, n + 1):
                    if power[i]:
                        out[i] += ck * power[i]
        return Series(out)

    def sqrt(self) -> "Series":
        """Square root by order-doubling; needs constant term 1."""
        return sqrt_newton(self)


def sqrt_newton(s: Series) -> Series:
    """Square root via the order-doubling iteration r <- (r + s/r)/2."""
    if s.coeffs[0] != 1:
        raise ValueError("series sqrt needs constant term 1")
    n = s.order
    r = [_ONE]
    prec = 1
    while prec < n + 1:
        prec = min(2 * prec, n + 1)
        quo = _list_div(s.coeffs[:prec], r, prec - 1)
        r = r + [_ZERO] * (prec - len(r))
        r = [(r[i] + quo[i]) / 2 for i in range(prec)]
    return Series(r)


def sqrt_binomial(s: Series) -> Series:
    """Square root via the binomial series for (1+u)**(1/2)."""
    if s.coeffs[0] != 1:
        raise ValueError("series sqrt needs constant term 1")
    binom = itertools.accumulate(
        range(1, s.order + 1), lambda b, k: b * (Fraction(1, 2) - (k - 1)) / k, initial=_ONE
    )
    return Series(binom).compose(s.add_scalar(-1))


def rational_power(a: Sequence[Scalar], alpha: Scalar, order: int) -> list[int]:
    """Coefficients 0..order of a(z)**alpha, for an integer polynomial a with a(0) = 1.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7): with
    alpha = p/q and f = a**alpha,

        q k f_k = sum_{j=1}^{min(k, deg a)} ((p + q) j - q k) a_j f_{k-j}.

    The sums run on Python ints and cost O(order * nnz a) coefficient
    operations, with (p + q) j a_j and q a_j taken once per term.  Every division is checked: a nonzero remainder means the
    power has a non-integer coefficient and raises ArithmeticError.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if any(_f(c).denominator != 1 for c in a):
        raise ValueError("rational_power needs integer coefficients")
    coeffs = [int(c) for c in a]
    if not coeffs or coeffs[0] != 1:
        raise ValueError("rational_power needs a(0) = 1")
    alpha = _f(alpha)
    p, q = alpha.numerator, alpha.denominator
    terms = [(j, (p + q) * j * c, q * c) for j, c in enumerate(coeffs) if j and c]
    f = [1] + [0] * order
    for k in range(1, order + 1):
        acc = 0
        for j, u, v in terms:  # u - k v = ((p + q) j - q k) a_j
            if j > k:
                break
            acc += (u - k * v) * f[k - j]
        fk, rem = divmod(acc, q * k)
        if rem:
            raise ArithmeticError(
                f"coefficient of z^{k} in a(z)^({alpha}) is {Fraction(acc, q * k)}, "
                "not an integer"
            )
        f[k] = fk
    return f


def exp_series(order: int) -> Series:
    """The exponential series, coefficients 1/n!."""
    return Series([Fraction(1, math.factorial(i)) for i in range(order + 1)])


def geometric_series(order: int) -> Series:
    """1/(1-z) to the given order."""
    return Series([_ONE] * (order + 1))


# ---------------------------------------------------------------------------
# bivariate truncated series
# ---------------------------------------------------------------------------


class BiSeries:
    """Series in two variables truncated to a rectangle of coefficients.

    ``coeffs[i][j]`` is the coefficient of x**i * y**j, with 0 <= i <= order_x
    and 0 <= j <= order_y.  The same exactness discipline as ``Series``
    applies, rectangle-wise.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        grid = tuple(tuple(_f(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("a bivariate series needs at least its constant term")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged coefficient grid")
        object.__setattr__(self, "coeffs", grid)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    def __reduce__(self):
        return (type(self), (self.coeffs,))

    @classmethod
    def zero(cls, order_x: int, order_y: int) -> "BiSeries":
        return cls([[_ZERO] * (order_y + 1) for _ in range(order_x + 1)])

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int], Scalar], order_x: int, order_y: int) -> "BiSeries":
        rows = [[_ZERO] * (order_y + 1) for _ in range(order_x + 1)]
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if i <= order_x and j <= order_y:
                rows[i][j] = _f(c)
        return cls(rows)

    @property
    def order_x(self) -> int:
        return len(self.coeffs) - 1

    @property
    def order_y(self) -> int:
        return len(self.coeffs[0]) - 1

    def coeff(self, i: int, j: int) -> Fraction:
        if i < 0 or j < 0:
            return _ZERO
        if i > self.order_x or j > self.order_y:
            raise IndexError(f"coefficient ({i},{j}) beyond orders ({self.order_x},{self.order_y})")
        return self.coeffs[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, BiSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("BiSeries", self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    def __repr__(self) -> str:
        return f"BiSeries(orders=({self.order_x},{self.order_y}))"

    def truncate_to(self, order_x: int, order_y: int) -> "BiSeries":
        if order_x > self.order_x or order_y > self.order_y:
            raise ValueError("cannot extend a bivariate series")
        return BiSeries([row[: order_y + 1] for row in self.coeffs[: order_x + 1]])

    def __neg__(self) -> "BiSeries":
        return BiSeries([[-c for c in row] for row in self.coeffs])

    def _aligned(self, other: "BiSeries") -> tuple[int, int]:
        return min(self.order_x, other.order_x), min(self.order_y, other.order_y)

    def __add__(self, other: "BiSeries") -> "BiSeries":
        nx, ny = self._aligned(other)
        return BiSeries(
            [[self.coeffs[i][j] + other.coeffs[i][j] for j in range(ny + 1)] for i in range(nx + 1)]
        )

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        nx, ny = self._aligned(other)
        return BiSeries(
            [[self.coeffs[i][j] - other.coeffs[i][j] for j in range(ny + 1)] for i in range(nx + 1)]
        )

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        nx, ny = self._aligned(other)
        out = [[_ZERO] * (ny + 1) for _ in range(nx + 1)]
        for i, row in enumerate(self.coeffs):
            if i > nx:
                break
            for j, c in enumerate(row):
                if j > ny:
                    break
                if not c:
                    continue
                for k in range(nx - i + 1):
                    orow = other.coeffs[k]
                    target = out[i + k]
                    for l in range(ny - j + 1):
                        o = orow[l]
                        if o:
                            target[j + l] += c * o
        return BiSeries(out)

    def scale(self, c: Scalar) -> "BiSeries":
        c = _f(c)
        return BiSeries([[c * a for a in row] for row in self.coeffs])

    def shift_x(self, k: int) -> "BiSeries":
        """Multiply by x**k; exact rows shift up, order_x grows by k."""
        if k < 0:
            raise ValueError("shift_x wants k >= 0")
        width = self.order_y + 1
        pad = [tuple([_ZERO] * width) for _ in range(k)]
        return BiSeries(pad + list(self.coeffs))

    def shift_y(self, k: int) -> "BiSeries":
        if k < 0:
            raise ValueError("shift_y wants k >= 0")
        return BiSeries([(_ZERO,) * k + row for row in self.coeffs])

    def dx(self) -> "BiSeries":
        if self.order_x < 1:
            raise ValueError("x-derivative needs order_x >= 1")
        return BiSeries(
            [[i * c for c in self.coeffs[i]] for i in range(1, self.order_x + 1)]
        )

    def dy(self) -> "BiSeries":
        if self.order_y < 1:
            raise ValueError("y-derivative needs order_y >= 1")
        return BiSeries(
            [[j * row[j] for j in range(1, self.order_y + 1)] for row in self.coeffs]
        )

    def reciprocal(self) -> "BiSeries":
        a00 = self.coeffs[0][0]
        if not a00:
            raise ZeroDivisionError("bivariate reciprocal needs a nonzero constant term")
        nx, ny = self.order_x, self.order_y
        out = [[_ZERO] * (ny + 1) for _ in range(nx + 1)]
        for i in range(nx + 1):
            for j in range(ny + 1):
                acc = _ONE if (i, j) == (0, 0) else _ZERO
                for k in range(i + 1):
                    arow = self.coeffs[k]
                    for l in range(j + 1):
                        if (k, l) == (0, 0):
                            continue
                        a = arow[l]
                        if a:
                            acc -= a * out[i - k][j - l]
                out[i][j] = acc / a00
        return BiSeries(out)

    def compose_outer(self, outer: Series) -> "BiSeries":
        """outer(self), with self(0,0) = 0; truncated to this rectangle."""
        if self.coeffs[0][0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        nx, ny = self.order_x, self.order_y
        vx = None
        vt = None
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    vx = i if vx is None else min(vx, i)
                    vt = i + j if vt is None else min(vt, i + j)
        if vt is None:
            const = outer.coeffs[0]
            out = BiSeries.zero(nx, ny)
            rows = [list(r) for r in out.coeffs]
            rows[0][0] = const
            return BiSeries(rows)
        bounds = [(nx + ny) // vt]
        if vx is not None and vx >= 1:
            bounds.append(nx // vx)
        k_needed = min(bounds)
        if outer.order < k_needed:
            raise ValueError(
                f"outer series order {outer.order} too small: bivariate composition "
                f"needs outer order {k_needed}"
            )
        acc = BiSeries.zero(nx, ny)
        rows = [list(r) for r in acc.coeffs]
        rows[0][0] = outer.coeffs[0]
        acc_rows = rows
        power = BiSeries.from_terms({(0, 0): 1}, nx, ny)
        for k in range(1, k_needed + 1):
            power = power * self
            ck = outer.coeffs[k]
            if ck:
                for i in range(nx + 1):
                    prow = power.coeffs[i]
                    arow = acc_rows[i]
                    for j in range(ny + 1):
                        p = prow[j]
                        if p:
                            arow[j] += ck * p
        return BiSeries(acc_rows)

    def row_series(self, j: int) -> Series:
        """The coefficient series of y**j, as a series in x."""
        if j < 0 or j > self.order_y:
            raise IndexError("row index out of range")
        return Series([self.coeffs[i][j] for i in range(self.order_x + 1)])
