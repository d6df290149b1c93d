"""Exhaustive enumeration of diagrams, the ground truth for every formula.

Counts here are produced by visiting every diagram of a class; nothing from
the generating-function side is consulted.  Enumeration is deterministic
(the lowest free vertex is paired first, partners in ascending order), so
two runs build identical tables.  A ``GenusTable`` holds its class tag, its
chord range n_max, its entries, whether they carry the 1-chord index, and the
genus range g_max (None here: an enumeration sees every genus).  The public
streams wrap the arrays the enumerator built without validating them again.

The counting tables come from one depth-first search, ``_tabulate``, that
serves full matchings (2n points) and partial matchings (n points).  It
does not rebuild each diagram's boundary cycles at the leaf.  It keeps the
boundary graph v -> partner(v)+1 (mod the vertex count) as a set of open
paths and closed cycles while chords are placed: each chord adds two edges,
and each edge either closes a cycle or joins two paths in O(1), undone on
backtrack.  An unmatched vertex u adds the edge u -> u+1, which yields the
cycles of the diagram with unmatched vertices deleted, without renumbering.
The 1-chord count and the running stack size are kept the same way, free
vertices sit in a linked list, and the forced last chord is unrolled.  The
cost is O(1) amortized per search node, against O(n) per leaf for the
cycle walk a diagram-by-diagram classification needs.

Pruning cuts only subtrees that hold no member of the class: the shape
table never places a chord directly inside its neighbour (that would stack
two chords), the macromolecular table never places a 1-chord.  Every diagram
of the class is still visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagrams import ChordDiagram, PartialDiagram, _genus_of

DEFAULT_FULL_CAP = 9
DEFAULT_PARTIAL_CAP = 14


def _resolve_cap(n: int, cap: int | None, default: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} enumeration needs n >= 0, got {n}")
    limit = default if cap is None else cap
    if n > limit:
        raise ValueError(
            f"{what} enumeration at n={n} exceeds the safety cap {limit}; "
            f"library callers can raise it with the cap= keyword"
        )


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = (2n)!/(2^n n!), the number of full diagrams with n chords."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


@dataclass(frozen=True)
class GenusTable:
    """Counts of diagrams keyed by genus (and friends).

    ``class_tag`` names the diagrams counted ("full", "shape" or
    "macromolecular").  Keys of ``entries`` are (g, n) or, when
    ``with_onechords`` is set, (g, n, m) with m the 1-chord number.  The
    table covers n <= n_max and, when ``g_max`` is set, only g <= g_max (an
    enumeration sees every genus; a recursion table does not).  Inside that
    range a missing key means a count of zero; a query outside it raises
    ``IndexError`` rather than answer a count nobody computed.
    """

    class_tag: str
    n_max: int
    entries: dict[tuple[int, ...], int]
    with_onechords: bool = False
    g_max: int | None = None

    def count(self, g: int, n: int, m: int | None = None) -> int:
        if m is None and self.with_onechords:
            self._check_range(g, n)
            return sum(v for k, v in self.entries.items() if k[0] == g and k[1] == n)
        # a stored key is in range, so only a miss pays for the range check
        value = self.entries.get((g, n) if m is None else (g, n, m))
        if value is None:
            self._check_range(g, n)
            return 0
        return value

    def _check_range(self, g: int, n: int) -> None:
        if n > self.n_max or (self.g_max is not None and g > self.g_max):
            genera = "every g" if self.g_max is None else f"g <= {self.g_max}"
            raise IndexError(
                f"({g}, {n}) lies outside this table ({genera}, n <= {self.n_max})"
            )

    def total(self, n: int) -> int:
        return sum(v for k, v in self.entries.items() if k[1] == n)


# ---------------------------------------------------------------------------
# the stream generator; it yields a shared mutable partner list for speed
# ---------------------------------------------------------------------------


def _matchings(length: int, partial: bool) -> Iterator[list[int]]:
    partner = [-1] * length

    def rec(i: int) -> Iterator[list[int]]:
        while i < length and partner[i] >= 0:
            i += 1
        if i == length:
            yield partner
            return
        if partial:
            yield from rec(i + 1)  # leave vertex i unmatched
        for j in range(i + 1, length):
            if partner[j] < 0:
                partner[i] = j
                partner[j] = i
                yield from rec(i + 1)
                partner[j] = -1
        partner[i] = -1

    yield from rec(0)


# ---------------------------------------------------------------------------
# the counting search
# ---------------------------------------------------------------------------


def _tabulate(
    length: int, *, shapes: bool = False, sigma_max: int = 0
) -> dict[tuple[int, int, int, int], int]:
    """Tally the matchings of ``length`` points in one depth-first search.

    By default every full matching is visited, and with ``shapes`` set only
    the shapes.  A positive ``sigma_max`` selects the macromolecular pass
    instead: partial matchings without 1-chords, with the smallest stack
    tracked and capped at ``sigma_max``, which also stands for "no stack".
    Keys are (boundary cycles, chords, 1-chords, smallest stack); cycles
    count the diagram with its unmatched vertices deleted, and the empty
    diagram bounds one.
    """
    partial = sigma_max > 0
    counts: dict[tuple[int, int, int, int], int] = {}
    if length == 0:
        counts[(1, 0, 0, sigma_max)] = 1
        return counts
    last = length - 1
    partner = [-1] * length
    # For an end v of an open boundary path, other[v] is the path's other
    # end: its head when v is the tail (no outgoing edge yet), its tail when
    # v is the head (no incoming edge yet).  Every vertex starts as a path.
    other = list(range(length))
    # undecided vertices in a doubly linked list headed by index `length`
    nxt = list(range(1, length + 2))
    nxt[length] = 0
    prv = list(range(-1, length))
    prv[0] = length

    def visit(left: int, cyc: int, k: int, m: int, run: int, low: int) -> None:
        # `left` vertices are undecided; `run` is the size of the stack whose
        # innermost chord starts just before the lowest of them and may still
        # grow (0 if none); `low` is the smallest stack already closed
        i = nxt[length]
        after = nxt[i]
        nxt[length] = after
        prv[after] = length
        if partial:
            # leave i unmatched: the edge i -> i+1 ends any open stack
            low1 = run if 0 < run < low else low
            succ = i + 1 if i < last else 0
            head = other[i]
            if head == succ:
                if left == 1:
                    key = (cyc + 1, k, m, low1)
                    counts[key] = counts.get(key, 0) + 1
                else:
                    visit(left - 1, cyc + 1, k, m, 0, low1)
            else:
                tail = other[succ]
                other[head] = tail
                other[tail] = head
                visit(left - 1, cyc, k, m, 0, low1)
                other[head] = i
                other[tail] = succ
        j = after
        while j < length:
            jn = nxt[j]
            one = j == i + 1
            stacked = i > 0 and partner[i - 1] == j + 1
            if (one and partial) or (stacked and shapes):
                j = jn
                continue
            partner[i] = j
            partner[j] = i
            jp = prv[j]
            nxt[jp] = jn
            prv[jn] = jp
            low1 = low
            run1 = 0
            if partial:
                if stacked:  # (i-1, j+1) left its stack open; (i, j) extends it
                    size = run + 1
                else:
                    size = 1
                    if 0 < run < low1:
                        low1 = run
                if j - i > 2 and partner[i + 1] < 0:
                    run1 = size  # (i+1, j-1) may still come
                elif size < low1:
                    low1 = size
            # the boundary edges i -> j+1 and j -> i+1
            c = cyc
            succ = j + 1 if j < last else 0
            head1 = other[i]
            if head1 == succ:
                c += 1
                tail1 = -1
            else:
                tail1 = other[succ]
                other[head1] = tail1
                other[tail1] = head1
            head2 = other[j]
            if head2 == i + 1:
                c += 1
                tail2 = -1
            else:
                tail2 = other[i + 1]
                other[head2] = tail2
                other[tail2] = head2
            rest = left - 2
            if rest == 0:
                key = (c, k + 1, m + one, low1)
                counts[key] = counts.get(key, 0) + 1
            elif rest == 1:
                # the one undecided vertex stays unmatched and closes the
                # last open path
                if 0 < run1 < low1:
                    low1 = run1
                key = (c + 1, k + 1, m + one, low1)
                counts[key] = counts.get(key, 0) + 1
            elif rest == 2 and not partial:
                # the forced last chord (a, b): the two open paths either
                # run a..b+1 and b..a+1 (two cycles close) or a..a+1 and
                # b..b+1 (they join into one)
                a = nxt[length]
                b = nxt[a]
                if not (shapes and partner[a - 1] == b + 1):
                    closes = 2 if other[a] == (b + 1 if b < last else 0) else 1
                    key = (c + closes, k + 2, m + one + (b == a + 1), low1)
                    counts[key] = counts.get(key, 0) + 1
            else:
                visit(rest, c, k + 1, m + one, run1, low1)
            if tail2 >= 0:
                other[head2] = j
                other[tail2] = i + 1
            if tail1 >= 0:
                other[head1] = i
                other[tail1] = succ
            nxt[jp] = j
            prv[jn] = j
            partner[i] = -1
            partner[j] = -1
            j = jn
        nxt[length] = i
        prv[after] = i

    visit(length, 0, 0, 0, 0, sigma_max)
    return counts


def _full_entries(n_max: int, cap: int | None, shapes: bool) -> dict[tuple[int, ...], int]:
    # (g, n, m) -> count over full diagrams (shapes only, if asked)
    _resolve_cap(n_max, cap, DEFAULT_FULL_CAP, "full diagram")
    entries: dict[tuple[int, ...], int] = {}
    for n in range(n_max + 1):
        for (cycles, _k, m, _low), v in _tabulate(2 * n, shapes=shapes).items():
            entries[(_genus_of(n, cycles), n, m)] = v
    return entries


# ---------------------------------------------------------------------------
# public streams
# ---------------------------------------------------------------------------


def enumerate_chord_diagrams(n: int, *, cap: int | None = None) -> Iterator[ChordDiagram]:
    """Every full diagram with n chords, each exactly once, in canonical order."""
    _resolve_cap(n, cap, DEFAULT_FULL_CAP, "full diagram")
    for partner in _matchings(2 * n, False):
        yield ChordDiagram._trusted(tuple(partner))


def enumerate_partial_diagrams(n: int, *, cap: int | None = None) -> Iterator[PartialDiagram]:
    """Every partial diagram on n backbone vertices, each exactly once."""
    _resolve_cap(n, cap, DEFAULT_PARTIAL_CAP, "partial diagram")
    for partner in _matchings(n, True):
        yield PartialDiagram._trusted(tuple(partner))


# ---------------------------------------------------------------------------
# counting tables
# ---------------------------------------------------------------------------


def count_by_genus(n_max: int, *, cap: int | None = None) -> GenusTable:
    """c_g(n) for all n <= n_max by exhaustive genus evaluation."""
    entries: dict[tuple[int, ...], int] = {}
    for (g, n, _m), v in _full_entries(n_max, cap, shapes=False).items():
        entries[(g, n)] = entries.get((g, n), 0) + v
    return GenusTable("full", n_max, entries)


def count_by_genus_onechords(n_max: int, *, cap: int | None = None) -> GenusTable:
    """Joint counts c_g(n, m) over full diagrams, m the 1-chord number."""
    entries = _full_entries(n_max, cap, shapes=False)
    return GenusTable("full", n_max, entries, with_onechords=True)


def count_shapes(n_max: int, *, cap: int | None = None) -> GenusTable:
    """Joint counts s_g(n, m) over shapes (every stack a single chord)."""
    entries = _full_entries(n_max, cap, shapes=True)
    return GenusTable("shape", n_max, entries, with_onechords=True)


def count_macromolecular(n_max: int, sigma: int, *, cap: int | None = None) -> GenusTable:
    """d_{g,sigma}(n): partial diagrams, no 1-chords, all stacks >= sigma."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return count_macromolecular_multi(n_max, (sigma,), cap=cap)[sigma]


def count_macromolecular_multi(
    n_max: int, sigmas: Iterable[int], *, cap: int | None = None
) -> dict[int, GenusTable]:
    """One enumeration pass classifying for several sigma values at once."""
    sig = sorted(set(sigmas))
    if not sig or sig[0] < 1:
        raise ValueError("sigma values must be >= 1")
    _resolve_cap(n_max, cap, DEFAULT_PARTIAL_CAP, "partial diagram")
    tables: dict[int, dict[tuple[int, ...], int]] = {s: {} for s in sig}
    for n in range(n_max + 1):
        tally = _tabulate(n, sigma_max=sig[-1])
        for (cycles, chords, _m, smallest), v in tally.items():
            key = (_genus_of(chords, cycles), n)
            for s in sig:
                if smallest >= s:
                    t = tables[s]
                    t[key] = t.get(key, 0) + v
    return {s: GenusTable("macromolecular", n_max, tables[s]) for s in sig}
