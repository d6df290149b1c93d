"""Request catalogues for the three benchmark workloads.

A workload is a list of slots.  Each slot names one request kind and a
finite set of parameter choices of similar cost.  A round sends one request
per slot, in an order shuffled by the seed; the seed also picks each slot's
parameters.  Every round therefore carries the same number of requests of
each kind, so two seeds do comparable work and only parameters and order
differ.  The union of all slot choices is the catalogue that
``reference.json`` covers.

A request is a tuple of strings.  ``("cli", *argv)`` is sent to
``chordgenus.cli.main(argv)``; ``("lib", "enumerate_chord_diagrams", n)``
streams every diagram with n chords through the public ``diagrams`` API.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

Request = tuple[str, ...]


def cli(text: str) -> Request:
    return ("cli", *text.split())


def key(request: Request) -> str:
    """The catalogue key of a request, as stored in ``reference.json``."""
    return " ".join(request)


def _series_dg(genera, sigmas, orders):
    return [
        cli(f"series dg --g {g} --sigma {s} --order {o}")
        for g, s, o in product(genera, sigmas, orders)
    ]


def _oracle_tables(n):
    return [cli(f"table {c} --n-max {n} --source oracle") for c in ("cg", "cg-m", "shapes")]


def _oracle_mm(n):
    return [cli(f"table mm --sigma {s} --n-max {n} --source oracle") for s in (1, 2, 3)]


def _polys(genera):
    return [cli(f"poly {k} --g {g}") for k, g in product(("pg", "rg", "qg"), genera)]


# Slots are ordered by cost within a round.  Slot counts are chosen so that
# the median and the tail percentile of a run fall inside a block of
# requests of like cost rather than on the edge between two kinds, whichever
# ladder rung (p75, p90 or p95) a run's request count gives the tail.

# mm-series: Series.compose over Fractions (cubic in the order) dominates;
# the oracle is never called.  Each slot's choices cost within about 10% of
# each other.  Sixteen slots: three cheap, six of about 0.3 s that hold the
# median (rank 8), six order-176..180 compositions that hold p75 and p90
# (ranks 12 and 14.4), and verify asymptotics, whose order-200 composition
# is the heaviest request.
MM_SERIES = [
    [
        cli(f"table mm --sigma 2 --g {g} --n-max {n} --source formula")
        for g, n in product((1, 2), (56, 58, 60))
    ],
    *[_series_dg((1, 2), (1,), (76, 78, 80))] * 2,
    *[_series_dg((1, 2), (1,), (96, 98, 100))] * 2,
    *[_series_dg((1, 2), (2,), (120, 122, 124))] * 2,
    *[
        [
            cli(f"asymptotics growth --g {g} --sigma 2 --n-max {n}")
            for g, n in product((1, 2), (106, 108, 110))
        ]
    ]
    * 2,
    *[_series_dg((1, 2), (3,), (176, 178, 180))] * 6,
    [cli("verify asymptotics --format json")],
]

# oracle-sweep: full matchings (tables, library stream) and partial
# matchings (macromolecular oracle) through the enumeration layer; the
# series layer stays idle apart from the small shape checks of verify.
# Enumeration cost grows about 13x per chord, so each slot fixes n.  Five
# n = 7 table slots hold p75 and p90 (ranks 12 and 14.4 of 16); two n = 6
# streams hold the median (rank 8).
ORACLE_SWEEP = [
    _oracle_tables(5),
    _oracle_tables(6),
    *[_oracle_tables(7)] * 5,
    _oracle_mm(9),
    _oracle_mm(10),
    _oracle_mm(11),
    [cli("verify oracle --format json")],
    [cli("verify shapes --format json")],
    [("lib", "enumerate_chord_diagrams", "5")],
    [("lib", "enumerate_chord_diagrams", "6")],
    [("lib", "enumerate_chord_diagrams", "6")],
    [("lib", "enumerate_chord_diagrams", "7")],
]

# exact-algebra: many small requests across Poly, the P_g pipeline, Sturm
# isolation, BiSeries and the recursion, plus large JSON tables for the cli
# layer.  By cost, six cheap slots come first, then three poly hz slots that
# hold the median (rank 7.5 of 15), then verify and the mid-size tables,
# then two n-max ~400 tables that hold p90 and p95 (ranks 13.5 and 14.25).
EXACT_ALGEBRA = [
    [cli(f"asymptotics singularity --sigma {s}") for s in range(1, 9)],
    [cli(f"poly {k} --g {g}") for k, g in product(("pg", "rg"), range(12, 23))],
    [cli(f"poly {k} --g {g}") for k, g in product(("pg", "rg"), range(2, 12))],
    [cli(f"poly qg --g {g}") for g in range(2, 23)],
    [cli(f"asymptotics constant --g {g}") for g in range(1, 13)],
    [cli(f"series cg --g {g} --order {o}") for g, o in product(range(1, 7), (100, 150, 200))],
    *[[cli(f"poly hz --n {n}") for n in (20, 21, 22)]] * 3,
    [cli(f"verify {s} --format json") for s in ("hz", "polys", "mm")],
    *[[cli(f"table {c} --n-max {n}") for c, n in product(("cg-m", "shapes"), (8, 9, 10))]] * 2,
    [cli(f"table cg --n-max {n}") for n in (140, 150, 160)],
    *[[cli(f"table cg --n-max {n}") for n in (380, 390, 400)]] * 2,
]

WORKLOADS = {
    "mm-series": MM_SERIES,
    "oracle-sweep": ORACLE_SWEEP,
    "exact-algebra": EXACT_ALGEBRA,
}


def catalogue(workload: str) -> list[Request]:
    """Every request the workload can send, each once, in a fixed order."""
    seen: dict[Request, None] = {}
    for slot in WORKLOADS[workload]:
        for request in slot:
            seen.setdefault(request, None)
    return list(seen)


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """The endless, seed-determined sequence of rounds of a workload."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        batch = [rng.choice(slot) for slot in slots]
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# computed work: the dominant kernel's operation count for each request
# ---------------------------------------------------------------------------


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!, the number of full matchings of 2n points."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def involutions(n: int) -> int:
    """Partial matchings of n points: a(n) = a(n-1) + (n-1) a(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def compose_terms(order: int, valuation: int) -> int:
    """Coefficient products of a dense truncated composition.

    Composing to ``order`` with an inner series of the given valuation takes
    order // valuation truncated products of length order + 1.
    """
    if valuation < 1:
        return 0
    return (order // valuation) * (order + 1) * (order + 2) // 2


def _flag(argv: Request, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def computed_work(request: Request) -> int:
    """Work units of one request: composition products or diagrams visited.

    Kinds without a dominant counted kernel (small polynomial, Sturm and
    table requests) count as one unit, so the total tracks the heavy kinds.
    """
    if request[0] == "lib":
        return double_factorial_odd(int(request[2]))
    argv = request[1:]
    if argv[0] == "series" and argv[1] == "dg":
        return compose_terms(_flag(argv, "--order"), 2 * _flag(argv, "--sigma"))
    if argv[0] == "asymptotics" and argv[1] == "growth":
        return compose_terms(_flag(argv, "--n-max"), 2 * _flag(argv, "--sigma"))
    if argv[0] == "table" and "oracle" in argv:
        n = _flag(argv, "--n-max")
        if argv[1] == "mm":
            return sum(involutions(k) for k in range(n + 1))
        return sum(double_factorial_odd(k) for k in range(n + 1))
    if argv[0] == "table" and argv[1] == "mm":
        return compose_terms(_flag(argv, "--n-max"), 2 * _flag(argv, "--sigma"))
    if argv[:2] == ("verify", "asymptotics"):
        return compose_terms(200, 2)
    return 1
