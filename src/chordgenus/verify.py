"""Cross-check suites binding every formula to an independent witness.

Each suite compares two routes to the same numbers: recursion against
brute-force enumeration, closed forms against recursions, series coefficients
against oracle counts, pipeline output against the direct polynomial route,
and certified root isolation against empirical coefficient ratios.  Results
come back as CheckResult rows; a row marked ``info`` reports a check that is
outside the stated theory (an extension) and does not gate the exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import asymptotics as asym
from . import bruteforce, genfunc, recurrences
from .series import Poly

GOLDEN_GENUS_POLYNOMIALS = {
    1: Poly([0, 0, 1]),
    2: Poly([0, 0, 0, 0, 21, 21]),
    3: Poly([0, 0, 0, 0, 0, 0, 1485, 6138, 1738]),
    4: Poly([0] * 8 + [225225, 1957527, 2628054, 334477]),
    5: Poly([0] * 10 + [59520825, 851809140, 2536380756, 1667288532, 119394366]),
}

SUITE_NAMES = ("oracle", "hz", "polys", "shapes", "mm", "asymptotics", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    info: bool = False

    @property
    def status(self) -> str:
        if self.info:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def first_mismatch(keys, left, right):
    """The first ``(key, left(key), right(key))`` whose two values differ, or None.

    Keys are consumed in order and nothing past the first mismatch is
    evaluated, so a lazy key stream and costly routes stop early.
    """
    for key in keys:
        a, b = left(key), right(key)
        if a != b:
            return key, a, b
    return None


def _check(
    suite, name, keys, left, right, ok_detail, fail_detail, info=False
) -> CheckResult:
    """One row: ``ok_detail`` if the routes agree on every key, else
    ``fail_detail(key, left(key), right(key))`` at the first key they differ."""
    bad = first_mismatch(keys, left, right)
    if bad is None:
        return CheckResult(suite, name, True, ok_detail, info)
    return CheckResult(suite, name, False, fail_detail(*bad), info)


# ---------------------------------------------------------------------------
# suite: oracle
# ---------------------------------------------------------------------------


def suite_oracle(n_max: int = 6) -> list[CheckResult]:
    oracle = bruteforce.count_by_genus(n_max)
    table = recurrences.diagram_count_table(n_max // 2, n_max)
    return [
        _check(
            "oracle",
            f"recursion equals enumeration (n <= {n_max})",
            ((g, n) for n in range(n_max + 1) for g in range(n // 2 + 1)),
            lambda k: table.count(*k),
            lambda k: oracle.count(*k),
            "all counts equal",
            lambda k, rec, orc: f"first counterexample c_{k[0]}({k[1]}): recursion {rec}, oracle {orc}",
        ),
        _check(
            "oracle",
            "genus totals sum to (2n-1)!! (n <= 30)",
            range(31),
            lambda n: sum(recurrences.diagram_count(g, n) for g in range(n // 2 + 1)),
            bruteforce.double_factorial_odd,
            "all totals equal",
            lambda n, total, dfac: f"first counterexample n={n}: sum {total}, double factorial {dfac}",
        ),
    ]


# ---------------------------------------------------------------------------
# suite: hz
# ---------------------------------------------------------------------------


def suite_hz(n_max: int = 10, eval_n: int = 6) -> list[CheckResult]:
    rows = recurrences.boundary_polynomials(n_max)
    indep = recurrences.boundary_polynomials_independent(n_max)
    eval_n = min(eval_n, n_max)  # rows holds polynomials up to n_max only
    oracle = bruteforce.count_by_genus(eval_n)

    def by_polynomial(k):
        n, x = k
        return rows.evaluate(n, Fraction(x)) * bruteforce.double_factorial_odd(n)

    def by_genus(k):
        n, x = k
        return sum(
            oracle.count(g, n) * Fraction(x) ** (n + 1 - 2 * g) for g in range(n // 2 + 1)
        )

    return [
        _check(
            "hz",
            f"boundary polynomials: recursion equals exp/log route (n <= {n_max})",
            range(n_max + 1),
            rows.poly,
            indep.poly,
            "all polynomials equal",
            lambda n, p, q: f"first counterexample n={n}: {p.coeffs} vs {q.coeffs}",
        ),
        _check(
            "hz",
            f"evaluation identity against oracle counts (n <= {eval_n})",
            ((n, x) for n in range(eval_n + 1) for x in range(1, eval_n + 1)),
            by_polynomial,
            by_genus,
            "identity holds at all sample points",
            lambda k, lhs, rhs: f"first counterexample n={k[0]}, x={k[1]}: {lhs} != {rhs}",
        ),
    ]


# ---------------------------------------------------------------------------
# suite: polys
# ---------------------------------------------------------------------------


def _polynomial_invariants_hold(g: int) -> bool:
    p = genfunc.genus_polynomial(g)
    return (
        p.is_integral()
        and p.degree <= 3 * g - 1
        and (p.valuation() or 0) >= 2 * g
        and p(Fraction(1, 4)) != 0
        and genfunc.reduced_genus_polynomial(g).coeff(0)
        == recurrences.diagram_count_min_chords(g)
    )


def _ode_counterexample(g: int, *_) -> str:
    res = genfunc.ode_residual(g, 12)
    k = res.valuation()
    return f"first counterexample g={g}: z^{k} coefficient {res.coeff(k)}"


def suite_polys(g_max: int = 5) -> list[CheckResult]:
    return [
        _check(
            "polys",
            f"golden polynomials P_1..P_{min(g_max, 5)}",
            (g for g in GOLDEN_GENUS_POLYNOMIALS if g <= g_max),
            genfunc.genus_polynomial,
            GOLDEN_GENUS_POLYNOMIALS.__getitem__,
            "all coefficients match",
            lambda g, p, q: f"first counterexample P_{g}: {p.coeffs} vs {q.coeffs}",
        ),
        _check(
            "polys",
            f"direct route equals pipeline (g <= {g_max + 1})",
            range(1, g_max + 2),
            genfunc.genus_polynomial_direct,
            genfunc.genus_polynomial,
            "both routes agree",
            lambda g, *_: f"first counterexample g={g}",
        ),
        _check(
            "polys",
            f"polynomial invariants (g <= {g_max + 1})",
            range(1, g_max + 2),
            _polynomial_invariants_hold,
            lambda g: True,
            "integrality, degree, divisibility, nonvanishing all hold",
            lambda g, *_: f"first counterexample g={g}: {genfunc.genus_polynomial(g).coeffs}",
        ),
        _check(
            "polys",
            f"closed-form series equals recursion (g <= {min(g_max, 4)}, order 15)",
            range(1, min(g_max, 4) + 1),
            lambda g: genfunc.genus_series_closed_form(g, 15),
            lambda g: genfunc.genus_series(g, 15),
            "series agree",
            lambda g, *_: f"first counterexample g={g}",
        ),
        _check(
            "polys",
            f"differential equation residual vanishes (g <= {min(g_max, 5)}, order 12)",
            range(1, min(g_max, 5) + 1),
            lambda g: genfunc.ode_residual(g, 12).is_zero(),
            lambda g: True,
            "residual is the zero series",
            _ode_counterexample,
        ),
    ]


# ---------------------------------------------------------------------------
# suite: shapes
# ---------------------------------------------------------------------------


def suite_shapes(n_max: int = 5) -> list[CheckResult]:
    shp = bruteforce.count_shapes(n_max)
    joint = bruteforce.count_by_genus_onechords(n_max)
    genera = range(n_max // 2 + 1)
    shapes = {g: genfunc.shape_bivariate(g, n_max, n_max) for g in genera}
    diagrams = {g: genfunc.diagram_bivariate(g, n_max, n_max) for g in genera}
    cells = [(g, n, m) for g in genera for n in range(n_max + 1) for m in range(n_max + 1)]

    return [
        _check(
            "shapes",
            f"shape series equals oracle shape counts (n <= {n_max})",
            cells,
            lambda k: shapes[k[0]].coeff(k[1], k[2]),
            lambda k: shp.count(*k),
            "all coefficients equal",
            lambda k, ser, orc: f"first counterexample s_{k[0]}({k[1]},{k[2]}): series {ser}, oracle {orc}",
        ),
        _check(
            "shapes",
            f"refined diagram series equals oracle counts (n <= {n_max})",
            cells,
            lambda k: diagrams[k[0]].coeff(k[1], k[2]),
            lambda k: joint.count(*k),
            "all coefficients equal",
            lambda k, ser, orc: f"first counterexample c_{k[0]}({k[1]},{k[2]}): series {ser}, oracle {orc}",
        ),
        _check(
            "shapes",
            "stack inflation carries shapes onto diagrams",
            genera,
            lambda g: genfunc.shape_bivariate_inflated(g, n_max, n_max),
            diagrams.__getitem__,
            "substitution identity holds",
            lambda g, *_: f"first counterexample g={g}",
        ),
        _check(
            "shapes",
            "partial differential equation residual vanishes (orders (8,8))",
            range(min(n_max // 2, 2) + 1),
            lambda g: genfunc.bivariate_pde_residual(g, 8, 8).is_zero(),
            lambda g: True,
            "residual is the zero grid",
            lambda g, *_: f"first counterexample g={g}",
        ),
        _check(
            "shapes",
            "fiber sum over shapes reproduces the diagram series",
            genera,
            lambda g: genfunc.diagram_bivariate_fiber_sum(g, n_max, n_max, shp),
            diagrams.__getitem__,
            "fiber decomposition holds",
            lambda g, *_: f"first counterexample g={g}",
        ),
    ]


# ---------------------------------------------------------------------------
# suite: mm
# ---------------------------------------------------------------------------


def suite_mm(n_max: int = 10, sigmas: tuple[int, ...] = (1, 2)) -> list[CheckResult]:
    oracle = bruteforce.count_macromolecular_multi(n_max, sigmas)
    series = {
        (sigma, g): genfunc.macromolecular_series(g, sigma, n_max)
        for sigma in sigmas
        for g in (0, 1, 2)
    }
    shp = bruteforce.count_shapes(max(2, n_max // 2))
    closed_forms = [
        _check(
            "mm",
            f"closed form equals oracle (sigma={sigma}, g in 1..2, n <= {n_max})",
            ((g, n) for g in (1, 2) for n in range(n_max + 1)),
            lambda k: series[sigma, k[0]].coeff(k[1]),
            lambda k: oracle[sigma].count(*k),
            "all coefficients equal",
            lambda k, ser, orc: f"first counterexample d_{k[0]},{sigma}({k[1]}): series {ser}, oracle {orc}",
        )
        for sigma in sigmas
    ]
    extensions = [
        _check(
            "mm",
            f"genus-0 extension equals oracle (sigma={sigma}, n <= {n_max})",
            range(n_max + 1),
            series[sigma, 0].coeff,
            lambda n: oracle[sigma].count(0, n),
            "extension agrees (outside the stated theory, reported only)",
            lambda n, ser, orc: f"first counterexample d_0,{sigma}({n}): series {ser}, oracle {orc}",
            info=True,
        )
        for sigma in sigmas
    ]
    fiber_sum = _check(
        "mm",
        f"fiber sum equals closed form (order {n_max})",
        ((sigma, 1) for sigma in sigmas),
        lambda k: genfunc.macromolecular_series_fiber_sum(k[1], k[0], n_max, shp),
        series.__getitem__,
        "fiber decomposition holds",
        lambda k, lhs, rhs: f"first counterexample sigma={k[0]}, g={k[1]}, z^{(lhs - rhs).valuation()}",
    )
    return closed_forms + extensions + [fiber_sum]


# ---------------------------------------------------------------------------
# suite: asymptotics
# ---------------------------------------------------------------------------


def suite_asymptotics() -> list[CheckResult]:
    s5 = asym.bracket_sqrt(Fraction(5))
    growth1 = asym.macromolecular_growth_interval(1)
    growth2 = asym.macromolecular_growth_interval(2)
    ratio = asym.macromolecular_growth_ratio(1, 1, 200)
    target = growth1.midpoint()
    est = asym.leading_constant(1)
    iv = asym.asymptotic_ratio_interval(1, 500)
    return [
        CheckResult(
            "asymptotics",
            "sigma=1 growth rate equals (3+sqrt5)/2",
            growth1.lo <= (3 + s5.hi) / 2 and (3 + s5.lo) / 2 <= growth1.hi,
            f"certified interval [{float(growth1.lo):.12f}, {float(growth1.hi):.12f}]",
        ),
        CheckResult(
            "asymptotics",
            "sigma=2 growth rate certified",
            growth2.width <= Fraction(1, 10 ** 9)
            and growth2.within(
                asym.RationalInterval(Fraction(19679, 10000), Fraction(19680, 10000))
            ),
            f"1/rho_2 in [{float(growth2.lo):.12f}, {float(growth2.hi):.12f}]; "
            f"coarse reference 1.9685 off by {float(abs(growth2.midpoint() - Fraction(19685, 10000))):.2e}",
        ),
        CheckResult(
            "asymptotics",
            "empirical sigma=1 ratio within 1% of certified rate (n=200)",
            abs(ratio / target - 1) <= Fraction(1, 100),
            f"ratio {float(ratio):.6f} vs {float(target):.6f}",
        ),
        CheckResult(
            "asymptotics",
            "genus-1 leading constant is 1/(12 sqrt pi)",
            est.rational_factor == Fraction(1, 12),
            f"rational factor {est.rational_factor}",
        ),
        CheckResult(
            "asymptotics",
            "count/asymptote ratio within 2% at n=500",
            iv.within(asym.RationalInterval(Fraction(98, 100), Fraction(102, 100))),
            f"ratio interval [{float(iv.lo):.6f}, {float(iv.hi):.6f}]",
        ),
    ]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    n_max: int | None = None,
    g_max: int | None = None,
    sigmas: tuple[int, ...] | None = None,
) -> list[CheckResult]:
    """Run one named suite (or every suite for ``all``) with optional limits."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    for flag, value in (("n_max", n_max), ("g_max", g_max)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    # a suite's defaults are its keyword defaults; only given limits are passed
    n = {} if n_max is None else {"n_max": n_max}
    g = {} if g_max is None else {"g_max": g_max}
    # a repeated sigma is one check, not two; first-seen order is kept
    s = {"sigmas": tuple(dict.fromkeys(sigmas))} if sigmas else {}
    # "all" holds the shape suite (two oracles and n x n bivariate series) to n <= 6
    n_shapes = {"n_max": min(n_max, 6)} if n and name == "all" else n
    suites = {
        "oracle": lambda: suite_oracle(**n),
        "hz": lambda: suite_hz(**n),
        "polys": lambda: suite_polys(**g),
        "shapes": lambda: suite_shapes(**n_shapes),
        "mm": lambda: suite_mm(**n, **s),
        "asymptotics": suite_asymptotics,
    }
    return [r for suite in (suites if name == "all" else (name,)) for r in suites[suite]()]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if not r.info)
