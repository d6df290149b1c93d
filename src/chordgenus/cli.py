"""Command-line surface: tables, polynomials, series, verification, asymptotics.

Every payload renders integers and rationals as decimal strings so that
consumers with 64-bit number types never corrupt exact values.  JSON is the
default format; CSV is offered for tables only.  Exit status: 0 all good,
1 mathematical mismatch, 2 usage or cap error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, asymptotics, bruteforce, genfunc, recurrences, verify

ORDER_CAP_ENV = "CHORDGENUS_ORDER_CAP"
DEFAULT_ORDER_CAP = 1000
# Largest genus a request may push through the P_g pipeline.  The pipeline
# cost grows about as g^3: building P_1..P_30 takes about 2 s on a 2-core
# host (P_22 0.8 s, P_40 5 s, P_50 9 s), and the heaviest admitted request,
# ``table mm --n-max 1000 --g-max 30 --source formula``, about 4 s.
MAX_PIPELINE_GENUS = 30

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    """Exact decimal-string rendering for ints and rationals."""
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def _order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}")


def _check_order_cap(value: int, flag: str) -> None:
    """Refuse a series order or n-max above the cap before any work starts."""
    cap = _order_cap()
    if value > cap:
        raise ValueError(
            f"{flag} {value} exceeds the cap {cap}; set {ORDER_CAP_ENV} to override"
        )


def _check_pipeline_genus(g: int, flag: str) -> None:
    """Refuse a genus the P_g pipeline would take too long to reach."""
    if g > MAX_PIPELINE_GENUS:
        raise ValueError(
            f"{flag} {g} exceeds the P_g pipeline limit {MAX_PIPELINE_GENUS}"
        )


def _document(command: str, parameters: dict, payload: dict, started: float) -> dict:
    return {
        "metadata": {
            "command": command,
            "parameters": {k: str(v) for k, v in sorted(parameters.items())},
            "version": __version__,
            "runtime_seconds": f"{time.perf_counter() - started:.3f}",
        },
        "payload": payload,
    }


def _emit_json(doc: dict, stream) -> None:
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit_csv(rows: list[dict], fieldnames: list[str], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_rows(args) -> tuple[list[dict], list[str]]:
    n_max = args.n_max
    g_max = args.g_max if args.g_max is not None else n_max // 2
    source = args.source
    if args.table_class == "cg":
        if source == "oracle":
            table = bruteforce.count_by_genus(n_max)
        else:
            table = recurrences.diagram_count_table(g_max, n_max)
        rows = [
            {"g": str(g), "n": str(n), "count": _fmt(table.count(g, n))}
            for g in range(g_max + 1)
            for n in range(n_max + 1)
        ]
        return rows, ["g", "n", "count"]
    if args.table_class == "cg-m":
        rows = []
        if source == "oracle":
            table = bruteforce.count_by_genus_onechords(n_max)
            for g in range(g_max + 1):
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        rows.append(
                            {
                                "g": str(g),
                                "n": str(n),
                                "m": str(m),
                                "count": _fmt(table.count(g, n, m)),
                            }
                        )
        else:
            for g in range(g_max + 1):
                biv = genfunc.diagram_bivariate(g, n_max, n_max)
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        rows.append(
                            {
                                "g": str(g),
                                "n": str(n),
                                "m": str(m),
                                "count": _fmt(biv.coeff(n, m)),
                            }
                        )
        return rows, ["g", "n", "m", "count"]
    if args.table_class == "shapes":
        rows = []
        if source == "oracle":
            table = bruteforce.count_shapes(n_max)
            for g in range(g_max + 1):
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        rows.append(
                            {
                                "g": str(g),
                                "n": str(n),
                                "m": str(m),
                                "count": _fmt(table.count(g, n, m)),
                            }
                        )
        else:
            for g in range(g_max + 1):
                sb = genfunc.shape_bivariate(g, n_max, n_max)
                for n in range(n_max + 1):
                    for m in range(n_max + 1):
                        rows.append(
                            {
                                "g": str(g),
                                "n": str(n),
                                "m": str(m),
                                "count": _fmt(sb.coeff(n, m)),
                            }
                        )
        return rows, ["g", "n", "m", "count"]
    # mm
    if args.sigma is None:
        raise ValueError("table mm requires --sigma")
    sigma = args.sigma
    genera = [args.g] if args.g is not None else list(range(g_max + 1))
    rows = []
    if source == "oracle":
        table = bruteforce.count_macromolecular(n_max, sigma)
        for g in genera:
            for n in range(n_max + 1):
                rows.append(
                    {
                        "sigma": str(sigma),
                        "g": str(g),
                        "n": str(n),
                        "count": _fmt(table.count(g, n)),
                    }
                )
    else:
        for g in genera:
            ser = genfunc.macromolecular_series(g, sigma, n_max)
            for n in range(n_max + 1):
                rows.append(
                    {
                        "sigma": str(sigma),
                        "g": str(g),
                        "n": str(n),
                        "count": _fmt(ser.coeff(n)),
                    }
                )
    return rows, ["sigma", "g", "n", "count"]


def cmd_table(args, stream) -> int:
    started = time.perf_counter()
    for flag, value in (("n-max", args.n_max), ("g-max", args.g_max), ("g", args.g)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0")
    if args.source == "formula":
        _check_order_cap(args.n_max, "n-max")
        if args.table_class == "mm":
            if args.g is not None:
                _check_pipeline_genus(args.g, "g")
            else:
                g_max = args.g_max if args.g_max is not None else args.n_max // 2
                _check_pipeline_genus(g_max, "g-max")
    rows, fieldnames = _table_rows(args)
    if args.format == "csv":
        _emit_csv(rows, fieldnames, stream)
        return EXIT_OK
    params = {
        "class": args.table_class,
        "n_max": args.n_max,
        "g_max": args.g_max if args.g_max is not None else args.n_max // 2,
        "source": args.source,
    }
    if args.sigma is not None:
        params["sigma"] = args.sigma
    if args.g is not None:
        params["g"] = args.g
    doc = _document("table", params, {"rows": rows}, started)
    _emit_json(doc, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def cmd_poly(args, stream) -> int:
    started = time.perf_counter()
    if args.poly_kind == "hz":
        if args.n is None:
            raise ValueError("poly hz requires --n")
        poly = recurrences.boundary_polynomials(args.n).poly(args.n)
        params = {"kind": "hz", "n": args.n}
    else:
        if args.g is None:
            raise ValueError(f"poly {args.poly_kind} requires --g")
        if args.g < 1:
            raise ValueError("g must be >= 1")
        _check_pipeline_genus(args.g, "g")
        if args.poly_kind == "pg":
            poly = genfunc.genus_polynomial(args.g)
        elif args.poly_kind == "rg":
            poly = genfunc.reduced_genus_polynomial(args.g)
        else:
            poly = genfunc.q_polynomial(args.g)
        params = {"kind": args.poly_kind, "g": args.g}
    payload = {"coefficients": [_fmt(c) for c in poly.coeffs]}
    doc = _document("poly", params, payload, started)
    _emit_json(doc, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def cmd_series(args, stream) -> int:
    started = time.perf_counter()
    _check_order_cap(args.order, "order")
    if args.order < 0:
        raise ValueError("order must be >= 0")
    if args.series_target == "cg":
        ser = genfunc.genus_series(args.g, args.order)
        params = {"target": "cg", "g": args.g, "order": args.order}
    else:
        if args.sigma is None:
            raise ValueError("series dg requires --sigma")
        _check_pipeline_genus(args.g, "g")
        ser = genfunc.macromolecular_series(args.g, args.sigma, args.order)
        params = {
            "target": "dg",
            "g": args.g,
            "sigma": args.sigma,
            "order": args.order,
        }
    payload = {"coefficients": [_fmt(c) for c in ser.coeffs]}
    doc = _document("series", params, payload, started)
    _emit_json(doc, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args, stream) -> int:
    started = time.perf_counter()
    if args.asym_kind == "constant":
        if args.g is None:
            raise ValueError("asymptotics constant requires --g")
        _check_pipeline_genus(args.g, "g")
        est = asymptotics.leading_constant(args.g)
        payload = {
            "exponent": _fmt(est.power),
            "growth_rate": _fmt(Fraction(est.growth)),
            "rational_factor": _fmt(est.rational_factor),
            "constant_interval": {
                "lo": _fmt(est.constant_interval.lo),
                "hi": _fmt(est.constant_interval.hi),
                "decimal": f"{float(est.constant_interval.midpoint()):.12g}",
            },
            "form": f"{est.rational_factor} / sqrt(pi)",
        }
        params = {"kind": "constant", "g": args.g}
    elif args.asym_kind == "singularity":
        if args.sigma is None:
            raise ValueError("asymptotics singularity requires --sigma")
        iso = asymptotics.dominant_singularity(args.sigma)
        growth = iso.reciprocal_interval()
        payload = {
            "polynomial": [_fmt(c) for c in iso.polynomial.coeffs],
            "root_interval": {
                "lo": _fmt(iso.lo),
                "hi": _fmt(iso.hi),
                "decimal": f"{float((iso.lo + iso.hi) / 2):.12g}",
                "exact": iso.exact,
            },
            "growth_interval": {
                "lo": _fmt(growth.lo),
                "hi": _fmt(growth.hi),
                "decimal": f"{float(growth.midpoint()):.12g}",
            },
        }
        params = {"kind": "singularity", "sigma": args.sigma}
    else:
        if args.g is None:
            raise ValueError("asymptotics growth requires --g")
        n = args.n_max
        _check_order_cap(n, "n-max")
        if args.sigma is None:
            ratio = asymptotics.diagram_growth_ratio(args.g, n)
            reference = "4"
        else:
            _check_pipeline_genus(args.g, "g")
            ratio = asymptotics.macromolecular_growth_ratio(args.g, args.sigma, n)
            reference = _fmt(
                asymptotics.macromolecular_growth_interval(args.sigma).midpoint()
            )
        payload = {
            "ratio": _fmt(ratio),
            "decimal": f"{float(ratio):.12g}",
            "reference": reference,
            "n": str(n),
        }
        params = {"kind": "growth", "g": args.g, "n_max": n}
        if args.sigma is not None:
            params["sigma"] = args.sigma
    doc = _document("asymptotics", params, payload, started)
    _emit_json(doc, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args, stream) -> int:
    started = time.perf_counter()
    sigmas = tuple(args.sigma_list) if args.sigma_list else None
    results = verify.run_suite(
        args.suite, n_max=args.n_max, g_max=args.g_max, sigmas=sigmas
    )
    if args.format == "json":
        payload = {
            "checks": [
                {
                    "suite": r.suite,
                    "name": r.name,
                    "status": r.status,
                    "detail": r.detail,
                }
                for r in results
            ],
            "passed": verify.all_passed(results),
        }
        doc = _document("verify", {"suite": args.suite}, payload, started)
        _emit_json(doc, stream)
    else:
        for r in results:
            stream.write(f"[{r.status}] {r.suite}: {r.name} -- {r.detail}\n")
        counted = [r for r in results if not r.info]
        stream.write(
            f"{sum(1 for r in counted if r.passed)}/{len(counted)} checks passed"
            f" ({sum(1 for r in results if r.info)} informational)\n"
        )
    return EXIT_OK if verify.all_passed(results) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordgenus",
        description="Exact enumeration of chord diagrams, shapes, and "
        "macromolecular diagrams by genus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a counting table")
    p_table.add_argument(
        "table_class",
        metavar="class",
        choices=["cg", "cg-m", "shapes", "mm"],
        help="cg: by genus; cg-m: by genus and 1-chords; shapes; mm: macromolecular",
    )
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--g-max", type=int, default=None)
    p_table.add_argument("--sigma", type=int, default=None, help="required for class mm")
    p_table.add_argument("--g", type=int, default=None, help="restrict mm output to one genus")
    p_table.add_argument("--source", choices=["oracle", "formula"], default="formula")
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.set_defaults(func=cmd_table)

    p_poly = sub.add_parser("poly", help="emit an exact polynomial")
    p_poly.add_argument(
        "poly_kind",
        metavar="kind",
        choices=["pg", "rg", "qg", "hz"],
        help="pg/rg/qg: numerator polynomials by genus; hz: boundary-count polynomial",
    )
    p_poly.add_argument("--g", type=int, default=None)
    p_poly.add_argument("--n", type=int, default=None)
    p_poly.set_defaults(func=cmd_poly)

    p_series = sub.add_parser("series", help="expand a generating function")
    p_series.add_argument("series_target", metavar="target", choices=["cg", "dg"])
    p_series.add_argument("--g", type=int, required=True)
    p_series.add_argument("--sigma", type=int, default=None)
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(func=cmd_series)

    p_asym = sub.add_parser("asymptotics", help="growth constants and singularities")
    p_asym.add_argument(
        "asym_kind", metavar="kind", choices=["constant", "singularity", "growth"]
    )
    p_asym.add_argument("--g", type=int, default=None)
    p_asym.add_argument("--sigma", type=int, default=None)
    p_asym.add_argument("--n-max", type=int, default=400)
    p_asym.set_defaults(func=cmd_asymptotics)

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.add_argument("suite", choices=list(verify.SUITE_NAMES))
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--g-max", type=int, default=None)
    p_verify.add_argument(
        "--sigma",
        dest="sigma_list",
        type=int,
        action="append",
        default=None,
        help="repeatable; restricts the mm suite",
    )
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
