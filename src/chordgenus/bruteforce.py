"""Exhaustive enumeration of diagrams, the ground truth for every formula.

Counts here are produced by visiting every diagram of a class; nothing from
the generating-function side is consulted.  Enumeration is deterministic
(the lowest free vertex is paired first, partners in ascending order), so
two runs build identical tables.  A ``GenusTable`` holds its class tag, its
chord range n_max, its entries, whether they carry the 1-chord index, and the
genus range g_max (None here: an enumeration sees every genus).  Every
oracle refuses an n past its fixed safety cap, ``DEFAULT_FULL_CAP`` or
``DEFAULT_PARTIAL_CAP``.

One depth-first walk, ``_nodes``, serves the full-matching tallies and both
public streams.  Over an explicit stack it places chords until 8 vertices
are undecided (or 7, which a partial matching can skip to); a matching of
at most 8 points is its root alone.  One O(length) walk per node
(``_node_key``) reads its signature: the tail that the open boundary path
from each undecided vertex's successor ends at, the cycles, chords and
1-chords among the decided vertices, which undecided vertices neighbour
each other, and whether the decided chords stack already or bar one
completion chord.  One classifier then closes every completion of a
signature: ``_closing_cycles`` counts the cycles each closes, keyed on the
tail order alone and built from the closings of fewer points, and
``_closing_chords`` gives the chords, 1-chords and shape flags it adds,
keyed on the neighbours and the bar.  Both are cached per process; at
n = 7 the walk's 1287 nodes have 591 signatures, with 281 tail orders and
205 neighbour patterns among them.

A full-matching tally counts the walk's nodes by signature and closes each
signature once.  One tally per point count, of (boundary cycles, 1-chords,
shape flag), serves ``count_by_genus``, ``count_by_genus_onechords`` and
``count_shapes``; it is built once per process and handed out read-only,
so every table, verify suite and request after the first reads it without
walking.  At n = 8 it closes 3212 signatures over 19 305 nodes.

The streams come lazily from ``_diagrams``, which hands out each node's
completions from a table of the canonical matchings of its k undecided
points, built on the first call of a stream and kept column by column: a
run of bytes per column of ranks.  One ``bytes.translate`` per node turns
the ranks into the node's vertices (O(k*m) bytes for m completions), and
``zip`` reads each partner tuple across those columns and a ``repeat`` of
each decided vertex's partner.  A node costs O(length) Python steps; a
diagram costs one tuple build and three C-level map steps, and no Python
step per vertex.  At n = 7 the walk hands out 105 completions at each of
1287 nodes.  The streams build their diagrams through
``diagrams._trusted`` and ``_trusted_batch``, without validating them
again, and hand each diagram its classification: boundary cycles, genus,
1-chords and (full only) the shape flag, joined once per signature
(``_node_tallies``), which ``boundary_cycles()``, ``genus()``,
``one_chord_count()`` and ``is_shape()`` then read without a walk.  A
node's first diagram goes out before the node's walk and carries none;
its queries walk the array.

The macromolecular tables come from their own depth-first search,
``_tabulate``, which tracks stack sizes, as the classifier does not.  It
does not rebuild each diagram's boundary cycles at the leaf.  It keeps the
boundary graph v -> partner(v)+1 (mod the vertex count) as a set of open
paths and closed cycles while chords are placed: each chord adds two edges,
and each edge either closes a cycle or joins two paths in O(1), undone on
backtrack.  An unmatched vertex u adds the edge u -> u+1, which yields the
cycles of the diagram with unmatched vertices deleted, without renumbering.
The running stack size is kept the same way, and free vertices sit in a
linked list.  The search never places a 1-chord, a subtree that holds no
member of the class; every macromolecular diagram is still visited.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from operator import eq
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .diagrams import ChordDiagram, PartialDiagram, _genus_of, _trusted, _trusted_batch

DEFAULT_FULL_CAP = 8
DEFAULT_PARTIAL_CAP = 14
# the streams carry vertex ids through a signed-byte view (``_diagrams``)
assert max(2 * DEFAULT_FULL_CAP, DEFAULT_PARTIAL_CAP) <= 127


def _check_cap(n: int, limit: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} enumeration needs n >= 0, got {n}")
    if n > limit:
        raise ValueError(f"{what} enumeration at n={n} exceeds the safety cap {limit}")


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
# the walk: every matching, node by node, closed by one classifier
# ---------------------------------------------------------------------------

# The walk stops at _CLOSE undecided vertices, or at _CLOSE - 1, which a
# partial matching can skip to; a matching of at most _CLOSE points is one
# node, the root.
_CLOSE = 8
# a translate table's tail: the ranks past a node's k, and 255, map to themselves
_IDENTITY = bytes(range(256))


def _canonical(size: int, partial: bool) -> list[tuple[int, ...]]:
    # every matching of `size` points as a partner tuple, in canonical order
    partner = [-1] * size
    out = []

    def place(i: int) -> None:
        while i < size and partner[i] >= 0:
            i += 1
        if i == size:
            out.append(tuple(partner))
            return
        if partial:
            place(i + 1)  # leave i unmatched
        for j in range(i + 1, size):
            if partner[j] < 0:
                partner[i] = j
                partner[j] = i
                place(i + 1)
                partner[j] = -1
        partner[i] = -1

    place(0)
    return out


@functools.cache
def _completions(partial: bool) -> dict[int, tuple[tuple, bytes]]:
    """Undecided vertex count k -> (the completions, their column block).

    The completions of k points, in canonical order and rank form, are what
    the classifier closes: completion s gives the undecided vertex u_t the
    partner u_(s[t]), or none when s[t] is -1.  The block holds column t of
    the m completions, (s[t] for each s), at offset t*m, with -1 stored as
    255, so that one ``bytes.translate`` per node turns every rank into its
    vertex at once.  Every k up to _CLOSE that a node can have is built on
    the first call of a stream or tally (about 0.15-0.25 ms full, 1-2 ms
    partial on a 2-core host).
    """
    out = {}
    for k in range(0, _CLOSE + 1, 1 if partial else 2):
        completions = tuple(_canonical(k, partial))
        out[k] = (completions, bytes(x & 255 for column in zip(*completions) for x in column))
    return out


def _nodes(length: int, partial: bool) -> Iterator[tuple[list[int], list[int]]]:
    """The nodes of the walk over the matchings of ``length`` points, in order.

    Depth-first over the lowest undecided vertex i.  Its options, in order,
    are i itself (left unmatched, partial only) and each free j > i.  A node
    is a partner array, -1 at its undecided vertices, with at most _CLOSE of
    them, handed out with the undecided vertices; the array is live, so the
    caller reads it before asking for the next node.  Every matching
    completes exactly one node, in canonical order when each node's
    completions follow ``_completions`` order.
    """
    # `lows` holds the decided vertices, partner[i] the option taken (-1 for
    # i), and `left` counts the undecided vertices, all of them at i or past it
    partner = [-1] * length
    lows: list[int] = []
    left = length
    i = 0
    while True:
        if left > _CLOSE:
            while partner[i] >= 0:
                i += 1
            j = i if partial else i + 1
        else:
            yield partner, [v for v in range(i, length) if partner[v] < 0]
            j = length  # backtrack
        # take the first free option from j on, backtracking while there is none
        while True:
            while j < length and partner[j] >= 0:
                j += 1
            if j < length:
                break
            if not lows:
                return
            i = lows.pop()
            j = partner[i]
            if j < 0:
                j = i
                left += 1
            else:
                partner[i] = partner[j] = -1
                left += 2
            j += 1
        if j > i:
            partner[i] = j
            partner[j] = i
            left -= 2
        else:
            left -= 1
        lows.append(i)
        i += 1


def _node_key(partner: list[int], undecided: list[int], partial: bool) -> tuple:
    # The signature of a node, from one walk over its decided vertices:
    # those below the lowest undecided one, and every matched one.  mark[v]
    # is the rank t of u_t = v, -1 for a decided vertex and -2 once the walk
    # has passed it.
    length = len(partner)
    if not length:
        return (partial, 0, (), 1, 0, 0, 0, False, -1)  # the empty diagram bounds one cycle
    mark = [-1] * length
    for t, u in enumerate(undecided):
        mark[u] = t
    # The boundary map sends v to partner(v)+1, or to v+1 when v is
    # unmatched or undecided, mod length.  From head u + 1 it runs over
    # decided vertices to an undecided tail, since no decided vertex maps
    # to u + 1.
    step = [(v if p < 0 else p) + 1 for v, p in enumerate(partner)]
    step[step.index(length)] = 0
    tails = []
    for u in undecided:
        w = step[u]
        while mark[w] < 0:
            mark[w] = -2
            w = step[w]
        tails.append(mark[w])
    # every decided vertex off those paths lies on a cycle closed already
    closed = 0
    for v in range(length):
        if mark[v] == -1:
            closed += 1
            w = v
            while mark[w] == -1:
                mark[w] = -2
                w = step[w]
    adjacent = 0  # bit t: u_(t+1) = u_t + 1
    for t in range(len(undecided) - 1):
        if undecided[t + 1] == undecided[t] + 1:
            adjacent |= 1 << t
    # A full node's decided chords stack already, or the decided chord
    # (u_0 - 1, p) bars the completion chord (u_0, u_bar), u_bar = p - 1,
    # that would sit right inside it (bar -1 for none; the root, u_0 = 0,
    # has no decided chord).  No other completion chord can stack with a
    # decided one, since every decided chord starts before u_0.
    stacked = False
    bar = -1
    if not partial:
        stacked = any(
            p - v > 2 and partner[v + 1] == p - 1 for v, p in enumerate(partner) if p > v
        )
        low = undecided[0]
        p = partner[low - 1] if low else -1
        if not stacked and p > low + 1 and mark[p - 1] >= 0:
            bar = mark[p - 1]
    return (
        partial, len(undecided), tuple(tails), closed,
        (length - partner.count(-1)) // 2, sum(map(eq, partner, range(1, length + 1))),
        adjacent, stacked, bar,
    )


# The classifier.  For the node that ``_node_key`` describes, the open
# boundary path from head u_t + 1 ends at tail u_T[t], T = ``tails``, and
# bit t of ``adjacent`` says u_(t+1) = u_t + 1.  Each function answers for
# every completion of the node, in ``_completions`` order; the node adds what
# its decided vertices hold.


@functools.cache
def _closing_cycles(partial: bool, k: int, tails: tuple[int, ...]) -> tuple[int, ...]:
    # The cycles that each completion s closes: those of t -> T[s(t)], with
    # s(t) = t for an unmatched u_t.  By the option of u_0, in canonical
    # order: u_0 left unmatched (j = 0) or paired with u_j.  Tails 0 and j
    # leave the map: hop sends each on through s to where the next path
    # ends, a path into one of them runs on by hop to a tail that stays, and
    # a cycle among them alone closes at once.
    if not k:
        return (0,)
    out = []
    for j in range(0 if partial else 1, k):
        hop = {0: tails[j], j: tails[0]}
        closed = sum(hop[x] == x for x in hop) + (j > 0 and hop[0] == j and hop[j] == 0)
        rest = [x for x in range(1, k) if x != j]
        inner = []
        for x in rest:
            y = tails[x]
            while y in hop:
                y = hop[y]
            inner.append(rest.index(y))
        out.extend(closed + c for c in _closing_cycles(partial, len(rest), tuple(inner)))
    return tuple(out)


@functools.cache
def _closing_chords(partial: bool, k: int, adjacent: int, bar: int) -> tuple[tuple, tuple, tuple]:
    # the chords, the 1-chords and the shape flags that the completions
    # add, column by column: a flag says that no completion chord stacks,
    # none with another and (u_0, u_bar) not at all; it is None for a
    # partial matching
    completions = _completions(partial)[k][0]
    if bar >= 0:
        # the columns without the bar, the flag cleared where s(0) = bar
        added, ones, shapes = _closing_chords(partial, k, adjacent, -1)
        return added, ones, tuple(f and s[0] != bar for f, s in zip(shapes, completions))
    added, ones, shapes = [], [], []
    for s in completions:
        pairs = [(t, x) for t, x in enumerate(s) if x > t]
        added.append(len(pairs))
        ones.append(sum(1 for t, x in pairs if x == t + 1 and adjacent >> t & 1))
        # (u_t, u_x) stacks with (u_(t+1), u_(x-1)) when both pairs of ends
        # are neighbours
        shapes.append(None if partial else not any(
            x - t > 2 and s[t + 1] == x - 1 and adjacent >> t & adjacent >> (x - 1) & 1
            for t, x in pairs
        ))
    return tuple(added), tuple(ones), tuple(shapes)


@functools.cache
def _tally(cycles: int, genus: int, ones: int, shape: bool | None) -> tuple:
    # one shared tuple per classification, so a node's tallies are pointers
    return cycles, genus, ones, shape


@functools.cache
def _node_tallies(
    partial: bool, k: int, tails: tuple[int, ...], closed: int, chords: int, ones: int,
    adjacent: int, stacked: bool, bar: int,
) -> tuple[tuple, ...]:
    """(boundary cycles, genus, 1-chords, shape flag) of each completion of a node.

    The classifier's two answers joined with the node's ``closed`` cycles
    and ``chords`` chords (``ones`` of them 1-chords) among its decided
    vertices; decided chords that stack already clear the shape flag.
    """
    added, more, shapes = _closing_chords(partial, k, adjacent, bar)
    return tuple(
        _tally(closed + c, _genus_of(chords + a, closed + c), ones + m, shape and not stacked)
        for c, a, m, shape in zip(_closing_cycles(partial, k, tails), added, more, shapes)
    )


def _diagrams(cls, length: int, columns: dict) -> Iterator:
    """Every matching of ``length`` points as a ``cls`` diagram, in canonical order."""
    if not length:
        yield _trusted(cls, ())  # zip() of no columns would yield nothing
        return
    partial = cls._allow_unmatched
    for partner, undecided in _nodes(length, partial):
        # one translate turns the block's ranks t into vertices u_t (255,
        # unmatched, stays and reads back as -1), and zip reads each
        # completion's partners across a column per undecided vertex and a
        # repeat per decided one
        k = len(undecided)
        completions, block = columns[k]
        m = len(completions)
        cols = memoryview(block.translate(bytes(undecided) + _IDENTITY[k:])).cast("b")
        its = list(map(repeat, partner))
        for t, u in enumerate(undecided):
            its[u] = cols[t * m : (t + 1) * m]
        arrays = zip(*its)
        # the node's first diagram goes out before its tallies are looked
        # up, so the stream's first diagram waits for no walk or search
        yield _trusted(cls, next(arrays))
        tallies = _node_tallies(*_node_key(partner, undecided, partial))
        yield from _trusted_batch(cls, m - 1, arrays, islice(tallies, 1, None))


@functools.cache
def _full_tally(length: int) -> Mapping[tuple[int, int, bool], int]:
    """(boundary cycles, 1-chords, shape flag) -> count, over full matchings.

    The walk's nodes over ``length`` points, counted by signature; each
    signature's completions are counted by what they close, once.  Nodes
    whose decided chords stack already clear the shape flag.
    """
    nodes = Counter(_node_key(p, undecided, False) for p, undecided in _nodes(length, False))
    counts: dict[tuple, int] = {}
    for (_p, k, tails, closed, _chords, ones, adjacent, stacked, bar), many in nodes.items():
        _added, more, shapes = _closing_chords(False, k, adjacent, bar)
        closing = Counter(zip(_closing_cycles(False, k, tails), more, shapes))
        for (c, m, shape), v in closing.items():
            key = (closed + c, ones + m, shape and not stacked)
            counts[key] = counts.get(key, 0) + many * v
    return MappingProxyType(counts)


def _full_entries(n_max: int, shapes: bool) -> dict[tuple[int, ...], int]:
    # (g, n, m) -> count over full diagrams, or over shapes only
    _check_cap(n_max, DEFAULT_FULL_CAP, "full diagram")
    entries: dict[tuple[int, ...], int] = {}
    for n in range(n_max + 1):
        for (cycles, m, shape), v in _full_tally(2 * n).items():
            if shape or not shapes:
                key = (_genus_of(n, cycles), n, m)
                entries[key] = entries.get(key, 0) + v
    return entries


# ---------------------------------------------------------------------------
# the macromolecular search
# ---------------------------------------------------------------------------


@functools.cache
def _tabulate(length: int) -> Mapping[tuple[int, int, int], int]:
    """Tally the macromolecular matchings of ``length`` points in one search.

    Every partial matching without 1-chords, with its smallest stack
    tracked.  Keys are (boundary cycles, chords, smallest stack); a diagram
    without chords reports length // 2 + 1, past every stack.  Cycles count
    the diagram with its unmatched vertices deleted, and the empty diagram
    bounds one.  Each tally is searched once per process and handed out
    read-only; the cap of its callers bounds the keys to a few dozen.
    """
    no_stack = length // 2 + 1  # past any stack of length points
    counts: dict[tuple[int, int, int], int] = {}
    if length == 0:
        counts[(1, 0, no_stack)] = 1
        return MappingProxyType(counts)
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

    def visit(left: int, cyc: int, k: int, run: int, low: int) -> None:
        # `left` vertices are undecided; `run` is the size of the stack whose
        # innermost chord starts just before the lowest of them and may still
        # grow (0 if none); `low` is the smallest stack already closed
        i = nxt[length]
        after = nxt[i]
        nxt[length] = after
        prv[after] = length
        # leave i unmatched: the edge i -> i+1 ends any open stack
        low1 = run if 0 < run < low else low
        succ = i + 1 if i < last else 0
        head = other[i]
        if head == succ:
            if left == 1:
                key = (cyc + 1, k, low1)
                counts[key] = counts.get(key, 0) + 1
            else:
                visit(left - 1, cyc + 1, k, 0, low1)
        else:
            tail = other[succ]
            other[head] = tail
            other[tail] = head
            visit(left - 1, cyc, k, 0, low1)
            other[head] = i
            other[tail] = succ
        j = after
        while j < length:
            jn = nxt[j]
            if j == i + 1:  # a 1-chord
                j = jn
                continue
            partner[i] = j
            partner[j] = i
            jp = prv[j]
            nxt[jp] = jn
            prv[jn] = jp
            low1 = low
            run1 = 0
            if i > 0 and partner[i - 1] == j + 1:
                size = run + 1  # (i-1, j+1) left its stack open; (i, j) extends it
            else:
                size = 1
                if 0 < run < low1:
                    low1 = run
            if j - i > 2 and partner[i + 1] < 0:
                run1 = size  # (i+1, j-1) may still come
            elif size < low1:
                low1 = size
            # the boundary edges i -> j+1 and j -> i+1
            cyc1 = cyc
            succ = j + 1 if j < last else 0
            head1 = other[i]
            if head1 == succ:
                cyc1 += 1
                tail1 = -1
            else:
                tail1 = other[succ]
                other[head1] = tail1
                other[tail1] = head1
            head2 = other[j]
            if head2 == i + 1:
                cyc1 += 1
                tail2 = -1
            else:
                tail2 = other[i + 1]
                other[head2] = tail2
                other[tail2] = head2
            rest = left - 2
            if rest == 0:
                key = (cyc1, k + 1, low1)
                counts[key] = counts.get(key, 0) + 1
            elif rest == 1:
                # the one undecided vertex stays unmatched and closes the
                # last open path
                if 0 < run1 < low1:
                    low1 = run1
                key = (cyc1 + 1, k + 1, low1)
                counts[key] = counts.get(key, 0) + 1
            else:
                visit(rest, cyc1, k + 1, run1, low1)
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

    visit(length, 0, 0, 0, no_stack)
    return MappingProxyType(counts)


# ---------------------------------------------------------------------------
# public streams
# ---------------------------------------------------------------------------


def enumerate_chord_diagrams(n: int) -> Iterator[ChordDiagram]:
    """Every full diagram with n chords, each exactly once, in canonical order."""
    _check_cap(n, DEFAULT_FULL_CAP, "full diagram")
    return _diagrams(ChordDiagram, 2 * n, _completions(False))


def enumerate_partial_diagrams(n: int) -> Iterator[PartialDiagram]:
    """Every partial diagram on n backbone vertices, each exactly once."""
    _check_cap(n, DEFAULT_PARTIAL_CAP, "partial diagram")
    return _diagrams(PartialDiagram, n, _completions(True))


# ---------------------------------------------------------------------------
# counting tables
# ---------------------------------------------------------------------------


def count_by_genus(n_max: int) -> GenusTable:
    """c_g(n) for all n <= n_max by exhaustive genus evaluation."""
    entries: dict[tuple[int, ...], int] = {}
    for (g, n, _m), v in _full_entries(n_max, False).items():
        entries[(g, n)] = entries.get((g, n), 0) + v
    return GenusTable("full", n_max, entries)


def count_by_genus_onechords(n_max: int) -> GenusTable:
    """Joint counts c_g(n, m) over full diagrams, m the 1-chord number."""
    entries = _full_entries(n_max, False)
    return GenusTable("full", n_max, entries, with_onechords=True)


def count_shapes(n_max: int) -> GenusTable:
    """Joint counts s_g(n, m) over shapes (every stack a single chord)."""
    entries = _full_entries(n_max, True)
    return GenusTable("shape", n_max, entries, with_onechords=True)


def count_macromolecular(n_max: int, sigma: int) -> GenusTable:
    """d_{g,sigma}(n): partial diagrams, no 1-chords, all stacks >= sigma."""
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return count_macromolecular_multi(n_max, (sigma,))[sigma]


def count_macromolecular_multi(n_max: int, sigmas: Iterable[int]) -> dict[int, GenusTable]:
    """One enumeration pass classifying for several sigma values at once."""
    sig = sorted(set(sigmas))
    if not sig or sig[0] < 1:
        raise ValueError("sigma values must be >= 1")
    _check_cap(n_max, DEFAULT_PARTIAL_CAP, "partial diagram")
    tables: dict[int, dict[tuple[int, ...], int]] = {s: {} for s in sig}
    for n in range(n_max + 1):
        for (cycles, chords, smallest), v in _tabulate(n).items():
            key = (_genus_of(chords, cycles), n)
            for s in sig:
                if not chords or smallest >= s:
                    t = tables[s]
                    t[key] = t.get(key, 0) + v
    return {s: GenusTable("macromolecular", n_max, tables[s]) for s in sig}
