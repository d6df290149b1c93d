"""Build ``reference.json``: one payload digest per catalogue entry.

Run from the repository root:

    python3 perfbench/reference.py

Every request of every workload's catalogue is sent once; the digest of its
canonical output (``client.canonical``) becomes the reference the benchmark
compares each response against.  Before a digest is stored, the payload is
checked by an independent route where one is cheap:

- oracle tables against the recursion (``diagram_count_table``) and the
  bivariate series (``diagram_bivariate``, ``shape_bivariate``);
- ``table mm --source oracle`` against ``macromolecular_series`` (n <= 11),
  and the low coefficients of ``series dg`` and ``table mm --source
  formula`` against the partial-matching oracle;
- the diagram stream against the bivariate series;
- ``poly pg|rg|qg`` against the direct route to P_g, ``poly hz`` against the
  exp/log route, ``series cg`` against the closed form;
- ``verify`` payloads must report ``passed``.

Any mismatch aborts without writing the file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import cache

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
ORACLE_N = 11  # partial-matching oracle reach for the macromolecular checks
FULL_N = 7  # full-matching oracle reach for the formula tables


class Mismatch(Exception):
    pass


def load() -> dict[str, str]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"]


# -- independent routes, each computed once


@cache
def _recursion(g_max, n_max):
    from chordgenus import recurrences

    return recurrences.diagram_count_table(g_max, n_max)


@cache
def _bivariate(kind, g, n):
    from chordgenus import genfunc

    fn = genfunc.diagram_bivariate if kind == "cg-m" else genfunc.shape_bivariate
    return fn(g, n, n)


@cache
def _mm_series(g, sigma, n):
    from chordgenus import genfunc

    return genfunc.macromolecular_series(g, sigma, n)


@cache
def _mm_oracle(sigma):
    from chordgenus import bruteforce

    return bruteforce.count_macromolecular(ORACLE_N, sigma)


@cache
def _full_oracle(kind):
    from chordgenus import bruteforce

    fn = {
        "cg": bruteforce.count_by_genus,
        "cg-m": bruteforce.count_by_genus_onechords,
        "shapes": bruteforce.count_shapes,
    }[kind]
    return fn(FULL_N)


@cache
def _direct_pg(g):
    from chordgenus import genfunc

    return genfunc.genus_polynomial_direct(g)


def _flag(argv, name):
    return int(argv[argv.index(name) + 1]) if name in argv else None


def _compare(label, pairs):
    for where, got, want in pairs:
        if got != want:
            raise Mismatch(f"{label}: {where}: payload {got}, independent route {want}")


def check(request, text) -> str | None:
    """Check one output by an independent route; return the route's name."""
    from fractions import Fraction

    from chordgenus import genfunc, recurrences
    from chordgenus.series import Poly

    if request[0] == "lib":
        doc = json.loads(text)
        n = doc["n"]
        by_gm, shapes = {}, {}
        for g, m, shape, c in doc["genus_onechords_shape_count"]:
            by_gm[(g, m)] = by_gm.get((g, m), 0) + c
            if shape:
                shapes[(g, m)] = shapes.get((g, m), 0) + c
        pairs = []
        for g in range(n // 2 + 1):
            for m in range(n + 1):
                pairs.append(((g, m), by_gm.get((g, m), 0), _bivariate("cg-m", g, n).coeff(n, m)))
                pairs.append(
                    (("shape", g, m), shapes.get((g, m), 0), _bivariate("shapes", g, n).coeff(n, m))
                )
        _compare(" ".join(request), pairs)
        return "diagram_bivariate, shape_bivariate"

    argv = request[1:]
    doc = json.loads(text)
    label = " ".join(argv)
    if argv[0] == "verify":
        if doc["payload"]["passed"] is not True:
            raise Mismatch(f"{label}: suite reports a failure")
        return "suite passed"
    if argv[0] == "table":
        kind = argv[1]
        n_max = _flag(argv, "--n-max")
        oracle = "oracle" in argv
        rows = doc["payload"]["rows"]
        if kind == "mm":
            sigma = _flag(argv, "--sigma")
            if oracle:
                pairs = [
                    (r, int(r["count"]), _mm_series(int(r["g"]), sigma, n_max).coeff(int(r["n"])))
                    for r in rows
                ]
                _compare(label, pairs)
                return "macromolecular_series"
            pairs = [
                (r, int(r["count"]), _mm_oracle(sigma).count(int(r["g"]), int(r["n"])))
                for r in rows
                if int(r["n"]) <= ORACLE_N
            ]
            _compare(label, pairs)
            return "count_macromolecular (n <= 11)"
        if oracle:
            if kind == "cg":
                table = _recursion(n_max // 2, n_max)
                pairs = [(r, int(r["count"]), table.count(int(r["g"]), int(r["n"]))) for r in rows]
                _compare(label, pairs)
                return "diagram_count_table"
            pairs = [
                (r, int(r["count"]), _bivariate(kind, int(r["g"]), n_max).coeff(int(r["n"]), int(r["m"])))
                for r in rows
            ]
            _compare(label, pairs)
            return "diagram_bivariate" if kind == "cg-m" else "shape_bivariate"
        table = _full_oracle(kind)
        pairs = [
            (r, int(r["count"]), table.count(int(r["g"]), int(r["n"]), int(r["m"]) if "m" in r else None))
            for r in rows
            if int(r["n"]) <= FULL_N
        ]
        _compare(label, pairs)
        return f"enumeration oracle (n <= {FULL_N})"
    coeffs = [Fraction(c) for c in doc["payload"].get("coefficients", [])]
    if argv[:2] == ("series", "dg"):
        g, sigma = _flag(argv, "--g"), _flag(argv, "--sigma")
        pairs = [(n, coeffs[n], _mm_oracle(sigma).count(g, n)) for n in range(ORACLE_N + 1)]
        _compare(label, pairs)
        return "count_macromolecular (n <= 11)"
    if argv[:2] == ("series", "cg"):
        g, order = _flag(argv, "--g"), _flag(argv, "--order")
        _compare(label, [("series", Poly(coeffs), Poly(genfunc.genus_series_closed_form(g, order).coeffs))])
        return "genus_series_closed_form"
    if argv[0] == "poly":
        if argv[1] == "hz":
            n = _flag(argv, "--n")
            want = recurrences.boundary_polynomials_independent(n).poly(n)
            _compare(label, [("poly", Poly(coeffs), want)])
            return "boundary_polynomials_independent"
        g = _flag(argv, "--g")
        direct = _direct_pg(g)
        want = {
            "pg": direct,
            "rg": direct.divide_by_power(2 * g),
            "qg": genfunc._q_from_poly(direct, g),
        }[argv[1]]
        _compare(label, [("poly", Poly(coeffs), want)])
        return "genus_polynomial_direct"
    return None


def build() -> dict:
    from client import digest, send
    from workloads import WORKLOADS, catalogue, key

    digests: dict[str, str] = {}
    routes: dict[str, int] = {}
    for workload in WORKLOADS:
        for request in catalogue(workload):
            k = key(request)
            if k in digests:
                continue
            t0 = time.perf_counter()
            text = send(request)
            dt = time.perf_counter() - t0
            route = check(request, text)
            digests[k] = digest(text)
            routes[route or "digest only"] = routes.get(route or "digest only", 0) + 1
            print(f"{dt:8.3f}s  {route or '-':<36} {k}", flush=True)
    return {"digests": dict(sorted(digests.items())), "checked_by": dict(sorted(routes.items()))}


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "chordgenus", "__init__.py")):
        print("error: run from the repository root (src/chordgenus not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("CHORDGENUS_ORDER_CAP", None)
    ref = build()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref['digests'])} digests written; independent routes: {ref['checked_by']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
