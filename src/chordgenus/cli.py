"""Command-line surface: tables, polynomials, series, verification, asymptotics.

Every payload renders integers and rationals as decimal strings so that
consumers with 64-bit number types never corrupt exact values.  JSON is the
default format; CSV is offered for tables only.  ``_validate`` holds every
request to one flag table, ``_TAKES``, before any work starts.  Exit status:
0 all good, 1 mathematical mismatch, 2 usage or cap error (a stray flag too),
or a reader that closed standard output before the payload was written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Iterator

from . import __version__, asymptotics, bruteforce, genfunc, recurrences, verify
from .bruteforce import DEFAULT_FULL_CAP, DEFAULT_PARTIAL_CAP  # caps that _TAKES names

# Largest series order or n-max of a table or a growth ratio (``series
# --order``, ``table --n-max``, ``asymptotics growth --n-max``); at the cap
# each takes about 0.1 s in a fresh process unless another cap binds first.
ORDER_CAP = 1000
# Largest genus a request may push through the P_g pipeline.  In a fresh
# process on a 2-core host, at g 30 / 40 / 50 / 60 (the cap raised to time):
#   poly pg|rg|qg, asymptotics constant   0.4 / 0.6 / 0.7-1.0 / 0.9-1.0 s
#   series dg, growth --sigma 2, to 1000  0.5-0.6 / 0.6-0.8 / 0.8-1.3 / 1.1-1.3 s
#   verify polys|all --g-max g - 1        1.4-1.9 / 2.2-2.4 / 3.8 / 6.4-7.3 s
#   table mm --n-max 1000, sigma 1, 2, 5  1.2-2.5 / 3.0-4.2 / 3.6-7.9 / 4.0-10.4 s
# table mm (its H x tail products, not P_g) sets 30.  poly qg --g G builds P_(G+1).
MAX_PIPELINE_GENUS = 30
# Largest number of rows a ``table`` request may print: genera x (n-max + 1),
# times (n-max + 1) again for cg-m and shapes, with one genus for ``mm --g``.
# Per row the cost depends on the class; on a 2-core host:
#   cg formula   JSON and CSV, in-process: n-max 700: 246 k rows 0.9 s,
#                0.8 s; 773: 299 k rows 1.2 s, 1.2 s; 800: 321 k rows
#                1.2 s, 1.2 s (the counts have up to 2216 digits and print
#                from Decimals, in time linear in their digits); n-max 549
#                at g-max 549, mostly zero rows past n-max // 2: 303 k rows
#                0.9 s, 0.7 s
#   cg-m, shapes n-max 83, every genus: 296 k rows 0.8 s, 0.9 s;
#                n-max 546 at g-max 0: 299 k rows 2.7 s, 3.2 s
#   oracle       n-max 8, fresh process: 45 rows of cg 0.6 s, 405 of cg-m
#                0.65 s and of shapes 0.55 s, nearly all of it the one
#                full-matching tally (its safety cap 8 binds long before the
#                row bound)
# so the bound admits cg up to n-max 773 (about 1.5 s), cg-m and shapes up to
# n-max 83 over every genus, and no table of millions of zero rows.
MAX_TABLE_ROWS = 300_000
# Largest sigma of every request that takes one: ``asymptotics
# singularity|growth``, ``series dg``, ``table mm`` and each ``verify
# --sigma``.  The singularity's Sturm chain costs about sigma^2.8: sigma 20
# takes 0.4 s, 30 1.2 s, 40 2.8 s, 60 8.8 s in-process.
MAX_SIGMA = 40
# Largest n of the boundary polynomial p(n, x) that ``poly hz --n`` prints.
# The single row is O(n^2) big-int steps: 0.6 ms at n 80, 0.04 s at 400,
# 0.26 s at 800, 0.32 s at 1000 and 0.60 s at 1200 in-process; 0.10, 0.26,
# 0.44 and 0.74 s at 400, 800, 1000 and 1200 in a fresh process (2-core
# host).  At 1000 its longest numerator or denominator has 2272 digits,
# under the 4300 that CPython prints.
MAX_HZ_POLY_N = 1000
# Largest ``verify hz|all --n-max``.  Verify builds every row 0..n-max twice,
# and the bound is held by the exp/log witness: 0.35 s at n 60 and
# 0.9-1.0 s at 80 in-process (``verify hz --n-max 80`` 0.8-1.2 s in a fresh
# process, 2-core host).
MAX_HZ_VERIFY_N = 80
GROWTH_N_MAX = 400  # the n of ``asymptotics growth`` without --n-max

# The flags each command kind takes, one row per flag and group of kinds: command,
# kinds, flag, least value, cap (its constant's name, read at check time), required.
# A later row for a kind and flag wins; a kind refuses any other flag.
_TAKES = (
    ("table", "cg|cg-m|shapes|mm", "n_max", 0, "ORDER_CAP", True),
    ("table", "cg|cg-m|shapes|mm", "g_max", 0, None, False),
    ("table", "mm", "g", 0, None, False),
    ("table", "mm", "sigma", 1, "MAX_SIGMA", True),
    ("poly", "hz", "n", 0, "MAX_HZ_POLY_N", True),
    ("poly", "pg|rg|qg", "g", 1, "MAX_PIPELINE_GENUS", True),
    ("series", "cg", "g", 0, None, True),
    ("series", "dg", "g", 0, "MAX_PIPELINE_GENUS", True),
    ("series", "dg", "sigma", 1, "MAX_SIGMA", True),
    ("series", "cg|dg", "order", 0, "ORDER_CAP", True),
    ("asymptotics", "constant", "g", 1, "MAX_PIPELINE_GENUS", True),
    ("asymptotics", "singularity", "sigma", 1, "MAX_SIGMA", True),
    ("asymptotics", "growth", "g", 0, None, True),
    ("asymptotics", "growth", "sigma", 1, "MAX_SIGMA", False),
    ("asymptotics", "growth", "n_max", 1, "ORDER_CAP", False),
    ("verify", "hz", "n_max", 1, "MAX_HZ_VERIFY_N", False),
    ("verify", "oracle|shapes|all", "n_max", 1, "DEFAULT_FULL_CAP", False),
    ("verify", "mm", "n_max", 1, "DEFAULT_PARTIAL_CAP", False),
    ("verify", "polys|all", "g_max", 1, None, False),
    ("verify", "mm|all", "sigma_list", 1, "MAX_SIGMA", False),
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@functools.cache
def _flags(command: str, kind: str) -> tuple:
    """Each flag of ``command`` as (attribute, name without _list, spec for ``kind`` or None)."""
    rows = [row for row in _TAKES if row[0] == command]
    takes = {row[2]: row[3:] for row in rows if kind in row[1].split("|")}
    flags = dict.fromkeys(row[2] for row in rows)
    return tuple((f, f.removesuffix("_list").replace("_", "-"), takes.get(f)) for f in flags)


def _validate(args) -> None:
    """Refuse, before any work starts, a request that ``_TAKES`` does not admit."""

    def over(name: str, value: int, cap: str) -> None:
        limit = globals()[cap]
        if value > limit:
            word = {"ORDER_CAP": "cap", "MAX_PIPELINE_GENUS": "P_g pipeline limit"}
            raise ValueError(f"{name} {value} exceeds the {word.get(cap, 'limit')} {limit}")

    kind = args.suite if args.command == "verify" else args.kind
    for flag, name, spec in _flags(args.command, kind):
        value = getattr(args, flag)
        if spec is None:
            if value is not None:
                users = "|".join(r[1] for r in _TAKES if r[0] == args.command and r[2] == flag)
                raise ValueError(f"--{name} applies to {args.command} {users} only")
            continue
        least, cap, required = spec
        if value is None:
            if required:
                raise ValueError(f"{args.command} {kind} requires --{name}")
            continue
        for v in value if isinstance(value, list) else [value]:
            if least is not None and v < least:
                raise ValueError(f"{name} must be >= {least}, got {v}")
            if cap is not None:
                over(name, v, cap)
    # the rules that tie two flags together
    if args.command == "table":
        g_max = args.g_max if args.g_max is not None else args.n_max // 2
        if kind == "mm" and args.source == "formula":  # the formula builds P_g per genus
            flag, g = ("g", args.g) if args.g is not None else ("g-max", g_max)
            over(flag, g, "MAX_PIPELINE_GENUS")
        # every genus up to g-max gets its rows, all zero past n-max // 2
        genera = 1 if args.g is not None else g_max + 1
        n_rows = genera * (args.n_max + 1) * (args.n_max + 1 if kind in ("cg-m", "shapes") else 1)
        if n_rows > MAX_TABLE_ROWS:
            raise ValueError(
                f"the table would have {n_rows} rows, over the limit {MAX_TABLE_ROWS}; "
                "lower --n-max or --g-max"
            )
    elif kind == "growth" and args.sigma is not None:
        over("g", args.g, "MAX_PIPELINE_GENUS")
        first = 4 * args.sigma * args.g + 1
        if (args.n_max or GROWTH_N_MAX) < first:
            raise ValueError(
                f"n-max must be >= {first} for g = {args.g}, sigma = {args.sigma}: "
                "d_g,sigma(n) vanishes below n = 4 sigma g, so the first ratio is at "
                "4 sigma g + 1"
            )
    elif kind == "growth" and (args.n_max or GROWTH_N_MAX) < 2 * args.g + 1:
        raise ValueError(
            f"n-max must be >= {2 * args.g + 1} for g = {args.g}: "
            f"c_g(n) vanishes below n = 2g, so the first ratio is at 2g + 1"
        )
    elif kind in ("polys", "all") and (args.g_max or 0) + 1 > MAX_PIPELINE_GENUS:
        raise ValueError(
            f"--g-max {args.g_max} exceeds {MAX_PIPELINE_GENUS - 1}: verify {kind} runs the "
            f"P_g pipeline to g-max + 1, and the pipeline limit is {MAX_PIPELINE_GENUS}"
        )


def _fmt(value) -> str:
    """Exact decimal-string rendering for ints and rationals."""
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


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
    """The table's fieldnames and its rows as tuples of raw numbers.

    An oracle table is read through one ``count(g, n[, m])``; the
    recursion, bivariate and macromolecular formula tables are dense rows
    per genus, iterated as they stand.  The recursion counts are Decimals,
    which print in time linear in their digits; every other count is an
    int or a Fraction.  Everything is built
    here, before the first row is asked for, so a failing computation never
    leaves half a payload behind.
    """
    n_max = args.n_max
    g_max = args.g_max if args.g_max is not None else n_max // 2
    genera = range(g_max + 1)
    ns = range(n_max + 1)
    oracle = args.source == "oracle"
    cls = args.kind
    if cls == "cg":
        if oracle:
            count = bruteforce.count_by_genus(n_max).count
            return ("g", "n", "count"), ((g, n, count(g, n)) for g in genera for n in ns)
        rows = recurrences.diagram_count_rows(g_max, n_max, Decimal)
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
    sigma = args.sigma
    if args.g is not None:
        genera = (args.g,)
    if oracle:
        count = bruteforce.count_macromolecular(n_max, sigma).count
        return ("sigma", "g", "n", "count"), (
            (sigma, g, n, count(g, n)) for g in genera for n in ns
        )
    rows = {g: genfunc.macromolecular_coeffs(g, sigma, n_max) for g in genera}
    return ("sigma", "g", "n", "count"), (
        (sigma, g, n, v) for g, row in rows.items() for n, v in enumerate(row)
    )


def _batches(items: Iterator[str]) -> Iterator[list[str]]:
    """``items`` in lists of ``ROW_BATCH``."""
    return iter(lambda: list(itertools.islice(items, ROW_BATCH)), [])


def _emit_list(doc: dict, key: str, items: Iterator[str], stream) -> None:
    """Write ``doc``, whose ``payload[key]`` is empty, with ``items`` spliced in.

    The JSON text is byte-identical to ``json.dump(indent=2, sort_keys=True)``
    of ``doc`` with the items' values in that list.  The envelope is dumped
    with the empty list, and the items, each already rendered at the fixed
    item indent, are spliced in ``ROW_BATCH`` at a time.  ``"%s" % v`` is
    ``str(v)``, the exact rendering of an int or a Fraction, whose digits,
    "-" and "/" need no escaping.
    """
    head, tail = json.dumps(doc, indent=2, sort_keys=True).rsplit(f'"{key}": []', 1)
    stream.write(head + f'"{key}": [')
    sep = "\n"
    for batch in _batches(items):
        stream.write(sep + ",\n".join(batch))
        sep = ",\n"
    stream.write(("]" if sep == "\n" else "\n    ]") + tail + "\n")


def _emit_table(doc: dict, fieldnames, rows, fmt: str, stream) -> None:
    """Write the rows as CSV, or as ``doc`` with the rows in ``payload.rows``.

    Each row is one template: a CSV line with its fields in table order, or
    a JSON object with its keys in sorted order.  No CSV field needs
    quoting, since every value is the ``str`` of an int, a Decimal or a
    Fraction, so the lines are those of ``csv.writer``.
    """
    if fmt == "csv":
        stream.write(",".join(fieldnames) + "\n")
        line = ",".join(["%s"] * len(fieldnames)) + "\n"
        for batch in _batches(map(line.__mod__, rows)):
            stream.write("".join(batch))
        return
    keys = sorted(fieldnames)
    template = "      {\n" + ",\n".join(f'        "{k}": "%s"' for k in keys) + "\n      }"
    pick = operator.itemgetter(*(fieldnames.index(k) for k in keys))
    _emit_list(doc, "rows", map(template.__mod__, map(pick, rows)), stream)


def _emit_coefficients(doc: dict, coeffs, stream) -> None:
    """Write ``doc`` with the exact ``coeffs`` in ``payload.coefficients``."""
    _emit_list(doc, "coefficients", map('      "%s"'.__mod__, coeffs), stream)


def cmd_table(args, stream) -> int:
    started = time.perf_counter()
    fieldnames, rows = _table_rows(args)
    params = {
        "class": args.kind,
        "n_max": args.n_max,
        "g_max": args.g_max if args.g_max is not None else args.n_max // 2,
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
    if args.kind == "hz":
        poly = recurrences.boundary_polynomial(args.n)
    elif args.kind == "pg":
        poly = genfunc.genus_polynomial(args.g)
    elif args.kind == "rg":
        poly = genfunc.reduced_genus_polynomial(args.g)
    else:
        poly = genfunc.q_polynomial(args.g)
    size = "n" if args.kind == "hz" else "g"
    params = {"kind": args.kind, size: getattr(args, size)}
    doc = _document("poly", params, {"coefficients": []}, started)
    _emit_coefficients(doc, poly.coeffs, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def cmd_series(args, stream) -> int:
    started = time.perf_counter()
    if args.kind == "cg":
        coeffs = genfunc.genus_coeffs(args.g, args.order)
        params = {"target": "cg", "g": args.g, "order": args.order}
    else:
        coeffs = genfunc.macromolecular_coeffs(args.g, args.sigma, args.order)
        params = {"target": "dg", "g": args.g, "sigma": args.sigma, "order": args.order}
    doc = _document("series", params, {"coefficients": []}, started)
    _emit_coefficients(doc, coeffs, stream)
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args, stream) -> int:
    started = time.perf_counter()
    if args.kind == "constant":
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
    elif args.kind == "singularity":
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
        n = args.n_max or GROWTH_N_MAX
        if args.sigma is None:
            ratio = asymptotics.diagram_growth_ratio(args.g, n)
            reference = "4"
        else:
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
    results = verify.run_suite(args.suite, n_max=args.n_max, g_max=args.g_max, sigmas=sigmas)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chordgenus",
        description="Exact enumeration of chord diagrams, shapes, and "
        "macromolecular diagrams by genus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a counting table")
    p_table.add_argument(
        "kind",
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
        "kind",
        metavar="kind",
        choices=["pg", "rg", "qg", "hz"],
        help="pg/rg/qg: numerator polynomials by genus; hz: boundary-count polynomial",
    )
    p_poly.add_argument("--g", type=int, default=None)
    p_poly.add_argument("--n", type=int, default=None)
    p_poly.set_defaults(func=cmd_poly)

    p_series = sub.add_parser("series", help="expand a generating function")
    p_series.add_argument("kind", metavar="target", choices=["cg", "dg"])
    p_series.add_argument("--g", type=int, required=True)
    p_series.add_argument("--sigma", type=int, default=None)
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(func=cmd_series)

    p_asym = sub.add_parser("asymptotics", help="growth constants and singularities")
    p_asym.add_argument("kind", metavar="kind", choices=["constant", "singularity", "growth"])
    p_asym.add_argument("--g", type=int, default=None)
    p_asym.add_argument("--sigma", type=int, default=None)
    p_asym.add_argument("--n-max", type=int, default=None)
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
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
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
