"""Command-line surface: tables, polynomials, series, verification, asymptotics.

Every payload renders integers and rationals as decimal strings so that
consumers with 64-bit number types never corrupt exact values.  JSON is the
default format; CSV is offered for tables only.  Exit status: 0 all good,
1 mathematical mismatch, 2 usage or cap error, or a reader that closed
standard output before the payload was written.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import operator
import os
import sys
import time
from fractions import Fraction
from typing import Iterator

from . import __version__, asymptotics, bruteforce, genfunc, recurrences, verify

# Largest series order or formula n-max (``series --order``, ``table
# --source formula --n-max``, ``asymptotics growth --n-max``).
ORDER_CAP = 1000
# Largest genus a request may push through the P_g pipeline.  Building
# P_1..P_g cold takes 0.3 s at g = 30, 0.4-0.5 s at 40, 0.6-0.8 s at 50 and
# 0.9 s at 60 on a 2-core host; ``table mm --n-max 1000 --g-max 30`` spends
# its 2-17 s (sigma 1..5) expanding the series, not building P_g.
MAX_PIPELINE_GENUS = 30
# Largest n-max of ``table cg-m|shapes --source formula``.  Per genus, cg-m
# costs O(n^2) integer steps (the y = 0 column and the PDE) and shapes adds
# an O(n^3) binomial transform; with n // 2 + 1 genera and (n+1)^2 rows
# each, shapes is the slower class: about 0.4 s at n = 60, 1.3 s at 80,
# 1.5-2.0 s at 90 and 2.8 s at 100 on a 2-core host (cg-m 0.2, 0.5, 0.7
# and 0.8-1.1 s).
MAX_BIVARIATE_N = 90
# Largest number of rows a ``table`` request may print: genera x (n-max + 1),
# times (n-max + 1) again for cg-m and shapes, with one genus for ``mm --g``.
# Per row the cost depends on the class; on a 2-core host:
#   cg formula   n-max 700: 246 k rows 3.5 s; 800: 321 k rows 5.3 s
#                (the counts have up to 480 digits); zero rows past
#                n-max // 2: 303 k rows 0.5 s
#   cg-m, shapes n-max 90, every genus: 381 k rows 0.9 s, 2.2 s
#   oracle       n-max 8: 450 k rows of cg 4.7 s, 405 k of shapes 3.6 s
# so the bound admits cg up to n-max 773 (about 5 s), cg-m and shapes up to
# n-max 83 over every genus, and no table of millions of zero rows.
MAX_TABLE_ROWS = 300_000
# Largest sigma of every request that takes one: ``asymptotics
# singularity|growth``, ``series dg``, ``table mm`` and each ``verify
# --sigma``.  The singularity's Sturm chain costs about sigma^3.5: sigma 20
# takes 0.6 s, 30 1.6 s, 40 3.7 s, 60 12 s.
MAX_SIGMA = 40
# Largest n of the boundary polynomials p(n, x) (``poly hz --n``, ``verify
# hz --n-max``): n 60 takes 0.6 s, 80 1.1 s and 1.9 s with the exp/log
# witness of verify; the polynomials alone take 1.7-2.0 s at n 100.
MAX_HZ_N = 80

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    """Exact decimal-string rendering for ints and rationals."""
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def _check_limit(value: int, limit: int, flag: str, what: str = "limit") -> None:
    """Refuse a parameter above its cost limit before any work starts."""
    if value > limit:
        raise ValueError(f"{flag} {value} exceeds the {what} {limit}")


def _check_pipeline_genus(g: int, flag: str) -> None:
    """Refuse a genus the P_g pipeline would take too long to reach."""
    _check_limit(g, MAX_PIPELINE_GENUS, flag, "P_g pipeline limit")


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


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# Rows go out in batches of this many, so a large table never sits in
# memory as one rendered string.
ROW_BATCH = 4096


def _table_rows(args) -> tuple[tuple[str, ...], Iterator[tuple]]:
    """The table's fieldnames and its rows as tuples of raw ints and Fractions.

    An oracle table or a macromolecular series is read through one
    ``count(g, n[, m])``; the recursion and bivariate formula tables are
    dense int rows per genus, iterated as they stand.  Everything is built
    here, before the first row is asked for, so a failing computation never
    leaves half a payload behind.
    """
    n_max = args.n_max
    g_max = args.g_max if args.g_max is not None else n_max // 2
    genera = range(g_max + 1)
    ns = range(n_max + 1)
    oracle = args.source == "oracle"
    cls = args.table_class
    if cls == "cg":
        if oracle:
            count = bruteforce.count_by_genus(n_max).count
            return ("g", "n", "count"), ((g, n, count(g, n)) for g in genera for n in ns)
        rows = recurrences.diagram_count_rows(g_max, n_max)
        return ("g", "n", "count"), (
            (g, n, v) for g, row in enumerate(rows) for n, v in enumerate(row)
        )
    if cls in ("cg-m", "shapes"):
        if oracle:
            if cls == "cg-m":
                count = bruteforce.count_by_genus_onechords(n_max).count
            else:
                count = bruteforce.count_shapes(n_max).count
            return ("g", "n", "m", "count"), (
                (g, n, m, count(g, n, m)) for g in genera for n in ns for m in ns
            )
        expand = genfunc.diagram_bivariate_rows if cls == "cg-m" else genfunc.shape_bivariate_rows
        grids = [expand(g, n_max, n_max) for g in genera]
        return ("g", "n", "m", "count"), (
            (g, n, m, v)
            for g, grid in enumerate(grids)
            for n, row in enumerate(grid)
            for m, v in enumerate(row)
        )
    if args.sigma is None:
        raise ValueError("table mm requires --sigma")
    sigma = args.sigma
    if args.g is not None:
        genera = (args.g,)
    if oracle:
        count = bruteforce.count_macromolecular(n_max, sigma).count
    else:
        series = {g: genfunc.macromolecular_series(g, sigma, n_max) for g in genera}

        def count(g, n):
            return series[g].coeff(n)

    return ("sigma", "g", "n", "count"), (
        (sigma, g, n, count(g, n)) for g in genera for n in ns
    )


def _emit_table(doc: dict, fieldnames, rows, fmt: str, stream) -> None:
    """Write the rows as CSV, or as ``doc`` with the rows in ``payload.rows``.

    The JSON text is byte-identical to ``json.dump(indent=2, sort_keys=True)``
    of string-valued row dicts.  The envelope is dumped with no rows and the
    rows are spliced in, each from one template with its keys in sorted order
    at the fixed row indent.  ``"%s" % v`` is ``str(v)``, the exact rendering
    of an int or a Fraction, whose digits, "-" and "/" need no escaping.
    """
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)
        return
    keys = sorted(fieldnames)
    template = "      {\n" + ",\n".join(f'        "{k}": "%s"' for k in keys) + "\n      }"
    render = template.__mod__
    pick = operator.itemgetter(*(fieldnames.index(k) for k in keys))
    head, tail = json.dumps(doc, indent=2, sort_keys=True).rsplit('"rows": []', 1)
    stream.write(head + '"rows": [')
    sep = "\n"
    for batch in iter(lambda: list(itertools.islice(rows, ROW_BATCH)), []):
        stream.write(sep + ",\n".join(map(render, map(pick, batch))))
        sep = ",\n"
    stream.write(("]" if sep == "\n" else "\n    ]") + tail + "\n")


def cmd_table(args, stream) -> int:
    started = time.perf_counter()
    for flag, value in (("n-max", args.n_max), ("g-max", args.g_max), ("g", args.g)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0")
    if args.sigma is not None:
        _check_limit(args.sigma, MAX_SIGMA, "sigma")
    g_max = args.g_max if args.g_max is not None else args.n_max // 2
    bivariate = args.table_class in ("cg-m", "shapes")
    if args.source == "formula":
        _check_limit(args.n_max, ORDER_CAP, "n-max", "cap")
        if bivariate and args.n_max > MAX_BIVARIATE_N:
            raise ValueError(
                f"n-max {args.n_max} exceeds the limit {MAX_BIVARIATE_N} of the "
                f"bivariate formula tables (cg-m, shapes)"
            )
        if args.table_class == "mm":
            if args.g is not None:
                _check_pipeline_genus(args.g, "g")
            else:
                _check_pipeline_genus(g_max, "g-max")
    # every genus up to g-max gets its rows, all zero past n-max // 2
    genera = 1 if args.table_class == "mm" and args.g is not None else g_max + 1
    n_rows = genera * (args.n_max + 1) * (args.n_max + 1 if bivariate else 1)
    if n_rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"the table would have {n_rows} rows, over the limit {MAX_TABLE_ROWS}; "
            "lower --n-max or --g-max"
        )
    fieldnames, rows = _table_rows(args)
    params = {
        "class": args.table_class,
        "n_max": args.n_max,
        "g_max": g_max,
        "source": args.source,
    }
    if args.sigma is not None:
        params["sigma"] = args.sigma
    if args.g is not None:
        params["g"] = args.g
    doc = _document("table", params, {"rows": []}, started)
    _emit_table(doc, fieldnames, rows, args.format, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def cmd_poly(args, stream) -> int:
    started = time.perf_counter()
    if args.poly_kind == "hz":
        if args.n is None:
            raise ValueError("poly hz requires --n")
        _check_limit(args.n, MAX_HZ_N, "n")
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
    _check_limit(args.order, ORDER_CAP, "order", "cap")
    if args.order < 0:
        raise ValueError("order must be >= 0")
    if args.series_target == "cg":
        ser = genfunc.genus_series(args.g, args.order)
        params = {"target": "cg", "g": args.g, "order": args.order}
    else:
        if args.sigma is None:
            raise ValueError("series dg requires --sigma")
        _check_limit(args.sigma, MAX_SIGMA, "sigma")
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
        _check_limit(args.sigma, MAX_SIGMA, "sigma")
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
        if args.g < 0:
            raise ValueError(f"g must be >= 0, got {args.g}")
        if n < 1:
            raise ValueError(f"n-max must be >= 1: the growth ratio needs terms n-1 and n, got {n}")
        _check_limit(n, ORDER_CAP, "n-max", "cap")
        if args.sigma is None:
            if n < 2 * args.g + 1:
                raise ValueError(
                    f"n-max must be >= {2 * args.g + 1} for g = {args.g}: "
                    f"c_g(n) vanishes below n = 2g, so the first ratio is at 2g + 1"
                )
            ratio = asymptotics.diagram_growth_ratio(args.g, n)
            reference = "4"
        else:
            _check_pipeline_genus(args.g, "g")
            _check_limit(args.sigma, MAX_SIGMA, "sigma")
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
    # the polys suite (also run by "all") takes both P_g routes to g-max + 1
    if args.suite in ("polys", "all") and (args.g_max or 0) + 1 > MAX_PIPELINE_GENUS:
        raise ValueError(
            f"--g-max {args.g_max} exceeds {MAX_PIPELINE_GENUS - 1}: verify "
            f"{args.suite} runs the P_g pipeline to g-max + 1, and the "
            f"pipeline limit is {MAX_PIPELINE_GENUS}"
        )
    if args.suite in ("hz", "all"):
        _check_limit(args.n_max or 0, MAX_HZ_N, "--n-max")
    if args.sigma_list:
        _check_limit(max(args.sigma_list), MAX_SIGMA, "--sigma")
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
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point fd 1 at devnull so the
        # interpreter's final flush of the dead pipe stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
