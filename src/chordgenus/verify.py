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


def _result(suite: str, name: str, passed: bool, detail: str, info: bool = False) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=passed, detail=detail, info=info)


# ---------------------------------------------------------------------------
# suite: oracle
# ---------------------------------------------------------------------------


def suite_oracle(n_max: int = 6) -> list[CheckResult]:
    out = []
    oracle = bruteforce.count_by_genus(n_max)
    table = recurrences.diagram_count_table(n_max // 2, n_max)
    bad = None
    for n in range(n_max + 1):
        for g in range(n // 2 + 1):
            if oracle.count(g, n) != table.count(g, n):
                bad = (g, n, table.count(g, n), oracle.count(g, n))
                break
        if bad:
            break
    out.append(
        _result(
            "oracle",
            f"recursion equals enumeration (n <= {n_max})",
            bad is None,
            "all counts equal"
            if bad is None
            else f"first counterexample c_{bad[0]}({bad[1]}): recursion {bad[2]}, oracle {bad[3]}",
        )
    )
    bad = None
    for n in range(31):
        total = sum(
            recurrences.diagram_count(g, n) for g in range(n // 2 + 1)
        )
        if total != bruteforce.double_factorial_odd(n):
            bad = (n, total, bruteforce.double_factorial_odd(n))
            break
    out.append(
        _result(
            "oracle",
            "genus totals sum to (2n-1)!! (n <= 30)",
            bad is None,
            "all totals equal"
            if bad is None
            else f"first counterexample n={bad[0]}: sum {bad[1]}, double factorial {bad[2]}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: hz
# ---------------------------------------------------------------------------


def suite_hz(n_max: int = 10, eval_n: int = 6) -> list[CheckResult]:
    out = []
    rows = recurrences.boundary_polynomials(n_max)
    indep = recurrences.boundary_polynomials_independent(n_max)
    bad = None
    for n in range(n_max + 1):
        if rows.poly(n) != indep.poly(n):
            bad = (n, rows.poly(n).coeffs, indep.poly(n).coeffs)
            break
    out.append(
        _result(
            "hz",
            f"boundary polynomials: recursion equals exp/log route (n <= {n_max})",
            bad is None,
            "all polynomials equal"
            if bad is None
            else f"first counterexample n={bad[0]}: {bad[1]} vs {bad[2]}",
        )
    )
    eval_n = min(eval_n, n_max)  # rows holds polynomials up to n_max only
    oracle = bruteforce.count_by_genus(eval_n)
    bad = None
    for n in range(eval_n + 1):
        dfac = bruteforce.double_factorial_odd(n)
        for x in range(1, eval_n + 1):
            lhs = rows.evaluate(n, Fraction(x)) * dfac
            rhs = sum(
                oracle.count(g, n) * Fraction(x) ** (n + 1 - 2 * g)
                for g in range(n // 2 + 1)
            )
            if lhs != rhs:
                bad = (n, x, lhs, rhs)
                break
        if bad:
            break
    out.append(
        _result(
            "hz",
            f"evaluation identity against oracle counts (n <= {eval_n})",
            bad is None,
            "identity holds at all sample points"
            if bad is None
            else f"first counterexample n={bad[0]}, x={bad[1]}: {bad[2]} != {bad[3]}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: polys
# ---------------------------------------------------------------------------


def suite_polys(g_max: int = 5) -> list[CheckResult]:
    out = []
    bad = None
    for g, expected in GOLDEN_GENUS_POLYNOMIALS.items():
        if g > g_max:
            continue
        if genfunc.genus_polynomial(g) != expected:
            bad = (g, genfunc.genus_polynomial(g).coeffs, expected.coeffs)
            break
    out.append(
        _result(
            "polys",
            f"golden polynomials P_1..P_{min(g_max, 5)}",
            bad is None,
            "all coefficients match"
            if bad is None
            else f"first counterexample P_{bad[0]}: {bad[1]} vs {bad[2]}",
        )
    )
    bad = None
    for g in range(1, g_max + 2):
        if genfunc.genus_polynomial_direct(g) != genfunc.genus_polynomial(g):
            bad = g
            break
    out.append(
        _result(
            "polys",
            f"direct route equals pipeline (g <= {g_max + 1})",
            bad is None,
            "both routes agree" if bad is None else f"first counterexample g={bad}",
        )
    )
    bad = None
    for g in range(1, g_max + 2):
        p = genfunc.genus_polynomial(g)
        r = genfunc.reduced_genus_polynomial(g)
        ok = (
            p.is_integral()
            and p.degree <= 3 * g - 1
            and (p.valuation() or 0) >= 2 * g
            and p(Fraction(1, 4)) != 0
            and r.coeff(0) == recurrences.diagram_count_min_chords(g)
        )
        if not ok:
            bad = (g, p.coeffs)
            break
    out.append(
        _result(
            "polys",
            f"polynomial invariants (g <= {g_max + 1})",
            bad is None,
            "integrality, degree, divisibility, nonvanishing all hold"
            if bad is None
            else f"first counterexample g={bad[0]}: {bad[1]}",
        )
    )
    bad = None
    for g in range(1, min(g_max, 4) + 1):
        if genfunc.genus_series_closed_form(g, 15) != genfunc.genus_series(g, 15):
            bad = g
            break
    out.append(
        _result(
            "polys",
            f"closed-form series equals recursion (g <= {min(g_max, 4)}, order 15)",
            bad is None,
            "series agree" if bad is None else f"first counterexample g={bad}",
        )
    )
    bad = None
    for g in range(1, min(g_max, 5) + 1):
        res = genfunc.ode_residual(g, 12)
        if not res.is_zero():
            k = res.valuation()
            bad = (g, k, res.coeff(k))
            break
    out.append(
        _result(
            "polys",
            f"differential equation residual vanishes (g <= {min(g_max, 5)}, order 12)",
            bad is None,
            "residual is the zero series"
            if bad is None
            else f"first counterexample g={bad[0]}: z^{bad[1]} coefficient {bad[2]}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: shapes
# ---------------------------------------------------------------------------


def suite_shapes(n_max: int = 5) -> list[CheckResult]:
    out = []
    shp = bruteforce.count_shapes(n_max)
    joint = bruteforce.count_by_genus_onechords(n_max)
    g_top = n_max // 2
    bad = None
    for g in range(g_top + 1):
        sb = genfunc.shape_bivariate(g, n_max, n_max)
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                if sb.coeff(n, m) != shp.count(g, n, m):
                    bad = (g, n, m, sb.coeff(n, m), shp.count(g, n, m))
                    break
            if bad:
                break
        if bad:
            break
    out.append(
        _result(
            "shapes",
            f"shape series equals oracle shape counts (n <= {n_max})",
            bad is None,
            "all coefficients equal"
            if bad is None
            else f"first counterexample s_{bad[0]}({bad[1]},{bad[2]}): series {bad[3]}, oracle {bad[4]}",
        )
    )
    bad = None
    for g in range(g_top + 1):
        biv = genfunc.diagram_bivariate(g, n_max, n_max)
        for n in range(n_max + 1):
            for m in range(n_max + 1):
                if biv.coeff(n, m) != joint.count(g, n, m):
                    bad = (g, n, m, biv.coeff(n, m), joint.count(g, n, m))
                    break
            if bad:
                break
        if bad:
            break
    out.append(
        _result(
            "shapes",
            f"refined diagram series equals oracle counts (n <= {n_max})",
            bad is None,
            "all coefficients equal"
            if bad is None
            else f"first counterexample c_{bad[0]}({bad[1]},{bad[2]}): series {bad[3]}, oracle {bad[4]}",
        )
    )
    bad = None
    for g in range(g_top + 1):
        if genfunc.shape_bivariate_inflated(g, n_max, n_max) != genfunc.diagram_bivariate(
            g, n_max, n_max
        ):
            bad = g
            break
    out.append(
        _result(
            "shapes",
            "stack inflation carries shapes onto diagrams",
            bad is None,
            "substitution identity holds" if bad is None else f"first counterexample g={bad}",
        )
    )
    bad = None
    for g in range(min(g_top, 2) + 1):
        res = genfunc.bivariate_pde_residual(g, 8, 8)
        if not res.is_zero():
            bad = g
            break
    out.append(
        _result(
            "shapes",
            "partial differential equation residual vanishes (orders (8,8))",
            bad is None,
            "residual is the zero grid" if bad is None else f"first counterexample g={bad}",
        )
    )
    bad = None
    for g in range(g_top + 1):
        if genfunc.diagram_bivariate_fiber_sum(g, n_max, n_max, shp) != genfunc.diagram_bivariate(
            g, n_max, n_max
        ):
            bad = g
            break
    out.append(
        _result(
            "shapes",
            "fiber sum over shapes reproduces the diagram series",
            bad is None,
            "fiber decomposition holds" if bad is None else f"first counterexample g={bad}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: mm
# ---------------------------------------------------------------------------


def suite_mm(n_max: int = 10, sigmas: tuple[int, ...] = (1, 2)) -> list[CheckResult]:
    out = []
    oracle = bruteforce.count_macromolecular_multi(n_max, sigmas)
    for sigma in sigmas:
        bad = None
        for g in (1, 2):
            ser = genfunc.macromolecular_series(g, sigma, n_max)
            for n in range(n_max + 1):
                if ser.coeff(n) != oracle[sigma].count(g, n):
                    bad = (g, n, ser.coeff(n), oracle[sigma].count(g, n))
                    break
            if bad:
                break
        out.append(
            _result(
                "mm",
                f"closed form equals oracle (sigma={sigma}, g in 1..2, n <= {n_max})",
                bad is None,
                "all coefficients equal"
                if bad is None
                else f"first counterexample d_{bad[0]},{sigma}({bad[1]}): series {bad[2]}, oracle {bad[3]}",
            )
        )
    for sigma in sigmas:
        ser = genfunc.macromolecular_series(0, sigma, n_max)
        bad = None
        for n in range(n_max + 1):
            if ser.coeff(n) != oracle[sigma].count(0, n):
                bad = (n, ser.coeff(n), oracle[sigma].count(0, n))
                break
        out.append(
            _result(
                "mm",
                f"genus-0 extension equals oracle (sigma={sigma}, n <= {n_max})",
                bad is None,
                "extension agrees (outside the stated theory, reported only)"
                if bad is None
                else f"first counterexample d_0,{sigma}({bad[0]}): series {bad[1]}, oracle {bad[2]}",
                info=True,
            )
        )
    shp = bruteforce.count_shapes(max(2, n_max // 2))
    bad = None
    for sigma in sigmas:
        for g in (1,):
            lhs = genfunc.macromolecular_series_fiber_sum(g, sigma, n_max, shp)
            rhs = genfunc.macromolecular_series(g, sigma, n_max)
            if lhs != rhs:
                k = (lhs - rhs).valuation()
                bad = (sigma, g, k)
                break
        if bad:
            break
    out.append(
        _result(
            "mm",
            f"fiber sum equals closed form (order {n_max})",
            bad is None,
            "fiber decomposition holds"
            if bad is None
            else f"first counterexample sigma={bad[0]}, g={bad[1]}, z^{bad[2]}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: asymptotics
# ---------------------------------------------------------------------------


def suite_asymptotics() -> list[CheckResult]:
    out = []
    s5 = asym.bracket_sqrt(Fraction(5))
    growth1 = asym.macromolecular_growth_interval(1)
    ok = growth1.lo <= (3 + s5.hi) / 2 and (3 + s5.lo) / 2 <= growth1.hi
    out.append(
        _result(
            "asymptotics",
            "sigma=1 growth rate equals (3+sqrt5)/2",
            ok,
            f"certified interval [{float(growth1.lo):.12f}, {float(growth1.hi):.12f}]",
        )
    )
    growth2 = asym.macromolecular_growth_interval(2)
    ok = growth2.width <= Fraction(1, 10 ** 9) and growth2.within(
        asym.RationalInterval(Fraction(19679, 10000), Fraction(19680, 10000))
    )
    out.append(
        _result(
            "asymptotics",
            "sigma=2 growth rate certified",
            ok,
            f"1/rho_2 in [{float(growth2.lo):.12f}, {float(growth2.hi):.12f}]; "
            f"coarse reference 1.9685 off by {float(abs(growth2.midpoint() - Fraction(19685, 10000))):.2e}",
        )
    )
    ratio = asym.macromolecular_growth_ratio(1, 1, 200)
    target = growth1.midpoint()
    ok = abs(ratio / target - 1) <= Fraction(1, 100)
    out.append(
        _result(
            "asymptotics",
            "empirical sigma=1 ratio within 1% of certified rate (n=200)",
            ok,
            f"ratio {float(ratio):.6f} vs {float(target):.6f}",
        )
    )
    est = asym.leading_constant(1)
    ok = est.rational_factor == Fraction(1, 12)
    out.append(
        _result(
            "asymptotics",
            "genus-1 leading constant is 1/(12 sqrt pi)",
            ok,
            f"rational factor {est.rational_factor}",
        )
    )
    iv = asym.asymptotic_ratio_interval(1, 500)
    ok = iv.within(asym.RationalInterval(Fraction(98, 100), Fraction(102, 100)))
    out.append(
        _result(
            "asymptotics",
            "count/asymptote ratio within 2% at n=500",
            ok,
            f"ratio interval [{float(iv.lo):.6f}, {float(iv.hi):.6f}]",
        )
    )
    return out


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
    if name == "all":
        results = []
        results += suite_oracle(6 if n_max is None else n_max)
        results += suite_hz(10 if n_max is None else n_max)
        results += suite_polys(5 if g_max is None else g_max)
        results += suite_shapes(5 if n_max is None else min(n_max, 6))
        results += suite_mm(10 if n_max is None else n_max, sigmas or (1, 2))
        results += suite_asymptotics()
        return results
    if name == "oracle":
        return suite_oracle(6 if n_max is None else n_max)
    if name == "hz":
        return suite_hz(10 if n_max is None else n_max)
    if name == "polys":
        return suite_polys(5 if g_max is None else g_max)
    if name == "shapes":
        return suite_shapes(5 if n_max is None else n_max)
    if name == "mm":
        return suite_mm(10 if n_max is None else n_max, sigmas or (1, 2))
    return suite_asymptotics()


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results if not r.info)
