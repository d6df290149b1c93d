"""Exhaustive enumeration of diagrams, the ground truth for every formula.

Counts here are produced by visiting every diagram of a class; nothing from
the generating-function side is consulted.  Enumeration is deterministic
(the lowest free vertex is paired first, partners in ascending order), so
two runs build identical tables.  A ``GenusTable`` holds its class tag, its
chord range n_max, its entries, whether they carry the 1-chord index, and the
genus range g_max (None here: an enumeration sees every genus).  Every
oracle refuses an n past its fixed safety cap, ``DEFAULT_FULL_CAP`` or
``DEFAULT_PARTIAL_CAP``.

The public streams come lazily from ``_diagrams``.  A depth-first walk over
an explicit stack places chords until 8 vertices are undecided (or 7, which
a partial matching can skip to), then hands out that node's completions
from a table of the canonical matchings of 8 points, built on the first
call of a stream.  Each diagram costs two C-level gathers, one per
completion for the undecided vertices and one per node that puts them among
the decided ones, and no Python step per vertex: at n = 7 the walk visits
1 + 13 + 143 nodes and hands out 105 completions at each of 1287.  The
streams wrap the arrays through ``diagrams._trusted``, without validating
them again, and hand each diagram its classification: boundary cycles,
genus, 1-chords and (full only) the shape flag, which ``boundary_cycles()``,
``genus()``, ``one_chord_count()`` and ``is_shape()`` then read without a
walk.  One O(length) walk per node (``_node_key``) finds, among other
things, the tail that the open boundary path from each undecided vertex's
successor ends at, so a completion closes the cycles of an 8-point map;
``_node_tallies`` classifies every completion of a node of that signature
once per process (591 signatures over the 1287 nodes at n = 7).  A node's
first diagram goes out before that walk and carries no classification, nor
does a diagram of a stream of at most 8 points; those queries walk the
array.

The counting tables come from one depth-first search, ``_tabulate``, that
serves full matchings (2n points) and partial matchings (n points).  It
does not rebuild each diagram's boundary cycles at the leaf.  It keeps the
boundary graph v -> partner(v)+1 (mod the vertex count) as a set of open
paths and closed cycles while chords are placed: each chord adds two edges,
and each edge either closes a cycle or joins two paths in O(1), undone on
backtrack.  An unmatched vertex u adds the edge u -> u+1, which yields the
cycles of the diagram with unmatched vertices deleted, without renumbering.
The 1-chord count and the running stack size are kept the same way, and
free vertices sit in a linked list.  A full matching closes its last two
chords in one step: at four undecided vertices a < b < c < d the four open
paths are fixed, and so is the order in which they lead into each other, so
the cycles each of the three matchings ab|cd, ac|bd and ad|bc closes come
from a 24 x 3 table built at import; the 1-chords and the shape test come
from the positions of a..d.  The search thus stops at four undecided
vertices: at n = 7 it makes 55 497 loop passes and 45 045 closing steps,
where placing the last two chords one by one takes 190 632 loop passes.
The cost is O(1) amortized per search node, against O(n) per leaf for the
cycle walk a diagram-by-diagram classification needs.  Each tally, one per
point count and mode, is searched once per process and handed out
read-only, so every table, verify suite and request after the first reads
it without searching.

Pruning cuts only subtrees that hold no member of the class: the shape
table never places a chord directly inside its neighbour (that would stack
two chords), nor closes (b, c) right inside (a, d); the macromolecular
table never places a 1-chord.  Every diagram of the class is still visited.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice, permutations, repeat
from operator import add, eq, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .diagrams import ChordDiagram, PartialDiagram, _genus_of, _trusted

try:
    from operator import call as _call
except ImportError:  # Python 3.10: the slot wrapper does the same, more slowly
    _call = itemgetter.__call__

DEFAULT_FULL_CAP = 8
DEFAULT_PARTIAL_CAP = 14


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
# the stream: a depth-first walk that closes its last chords from a table
# ---------------------------------------------------------------------------

# The walk stops at _CLOSE undecided vertices, or at _CLOSE - 1, which a
# partial matching can skip to, and hands out that node's completions.
_CLOSE = 8


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
def _gathers(partial: bool) -> dict[int, tuple[tuple, tuple]]:
    """Undecided vertex count k -> (one gather per completion, the completions).

    A completion s of the undecided vertices u_0 < ... < u_(k-1) of a node
    gives u_t the partner u_(s[t]), or none when s[t] is -1, so
    itemgetter(*s) reads them all from (u_0, ..., u_(k-1), -1).  Both come
    in canonical order; the completions, in this rank form cut to k
    entries, are what ``_node_tallies`` classifies.  A partial node of
    _CLOSE - 1 vertices takes the completions that leave the last of _CLOSE
    points unmatched, and that point reads padding.  Built on the first call
    of a stream (0.1 ms full, 0.6 ms partial), so a process that never
    streams holds none.
    """
    completions = _canonical(_CLOSE, partial)
    out = {_CLOSE: (tuple(itemgetter(*s) for s in completions), tuple(completions))}
    if partial:
        short = [s for s in completions if s[-1] < 0]
        out[_CLOSE - 1] = (tuple(itemgetter(*s) for s in short), tuple(s[:-1] for s in short))
    return out


def _node_key(partner: list[int], undecided: list[int], partial: bool) -> tuple:
    # The arguments of _node_tallies for a node, from one walk over its
    # decided vertices: those below the lowest undecided one, and every
    # matched one.  mark[v] is the rank t of u_t = v, -1 for a decided
    # vertex and -2 once the walk has passed it.
    length = len(partner)
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
    # that would sit right inside it (bar -1 for none).  No other completion
    # chord can stack with a decided one, since every decided chord starts
    # before u_0, the lowest undecided vertex.
    stacked = False
    bar = -1
    if not partial:
        stacked = any(
            p - v > 2 and partner[v + 1] == p - 1 for v, p in enumerate(partner) if p > v
        )
        low = undecided[0]
        p = partner[low - 1]
        if not stacked and p > low + 1 and mark[p - 1] >= 0:
            bar = mark[p - 1]
    return (
        partial, len(undecided), tuple(tails), closed,
        (length - partner.count(-1)) // 2, sum(map(eq, partner, range(1, length + 1))),
        adjacent, stacked, bar,
    )


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

    In ``_gathers`` order, for the node that ``_node_key`` describes: the
    open boundary path from head u_t + 1 ends at tail u_T[t], T = ``tails``;
    ``closed`` cycles and ``chords`` chords (``ones`` of them 1-chords) lie
    among the decided vertices; bit t of ``adjacent`` says u_(t+1) = u_t + 1;
    and a full node's decided chords stack already or bar the completion
    chord (u_0, u_bar).  A completion s closes the cycles of t -> T[s(t)],
    with s(t) = t for an unmatched u_t.  The shape flag is None in a
    partial node.
    """
    out = []
    for s in _gathers(partial)[k][1]:
        step = [tails[t if x < 0 else x] for t, x in enumerate(s)]
        cycles = closed
        for start in range(k):
            if step[start] >= 0:
                cycles += 1
                x = start
                while step[x] >= 0:
                    y = step[x]
                    step[x] = -1
                    x = y
        pairs = [(t, x) for t, x in enumerate(s) if x > t]
        ones_s = ones + sum(1 for t, x in pairs if x == t + 1 and adjacent >> t & 1)
        shape = None
        if not partial:
            # (u_t, u_x) stacks with (u_(t+1), u_(x-1)) when both pairs of
            # ends are neighbours
            shape = not stacked and s[0] != bar and not any(
                x - t > 2 and s[t + 1] == x - 1 and adjacent >> t & adjacent >> (x - 1) & 1
                for t, x in pairs
            )
        out.append(_tally(cycles, _genus_of(chords + len(pairs), cycles), ones_s, shape))
    return tuple(out)


def _diagrams(cls, length: int, gathers: dict) -> Iterator:
    """Every matching of ``length`` points as a ``cls`` diagram, in canonical order."""
    partial = cls._allow_unmatched
    if length <= _CLOSE:
        # those of _CLOSE points whose last _CLOSE - length points take the
        # first completion (all unmatched, or paired as (length, length+1),
        # ...), cut to length points
        completions = gathers[_CLOSE][1]
        first = completions[0][length:]
        arrays = (s[:length] for s in completions if s[length:] == first)
        yield from map(_trusted, repeat(cls), arrays)
        return
    # Depth-first over the lowest undecided vertex i.  Its options, in order,
    # are i itself (left unmatched, partial only) and each free j > i; `lows`
    # holds the decided vertices, partner[i] the option taken (-1 for i), and
    # `left` counts the undecided vertices, all of them at i or past it.
    partner = [-1] * length
    lows: list[int] = []
    left = length
    i = 0
    while True:
        while partner[i] >= 0:
            i += 1
        if left > _CLOSE:
            j = i if partial else i + 1
        else:
            # each completion gathers _CLOSE partners for the undecided
            # vertices, and one gather per node puts them among the decided
            # vertices' partners
            undecided = [v for v in range(i, length) if partner[v] < 0]
            node_gathers = gathers[len(undecided)][0]
            order = list(range(_CLOSE, _CLOSE + length))
            for t, v in enumerate(undecided):
                order[v] = t
            lift = (*undecided, *repeat(-1, _CLOSE + 1 - len(undecided)))
            gathered = map(_call, node_gathers, repeat(lift))
            arrays = map(itemgetter(*order), map(add, gathered, repeat(tuple(partner))))
            # the node's first diagram goes out before its tallies are looked
            # up, so the stream's first diagram waits for no walk or search
            yield _trusted(cls, next(arrays))
            tallies = _node_tallies(*_node_key(partner, undecided, partial))
            yield from map(_trusted, repeat(cls), arrays, islice(tallies, 1, None))
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


# ---------------------------------------------------------------------------
# the counting search
# ---------------------------------------------------------------------------

# The three matchings ab|cd, ac|bd and ad|bc of four points 0 < 1 < 2 < 3.
_FOUR_MATCHINGS = ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _closing_table() -> tuple:
    # Four open paths, their tails ranked 0..3: the path whose head follows
    # tail x (the vertex x + 1) ends at tail t[x].  A matching mu adds the
    # edges x -> mu(x) + 1, so it closes the cycles of x -> t[mu[x]].  Entry
    # t[0] << 4 | t[1] << 2 | t[2] holds that count for each mu; indices no
    # permutation t takes hold None.
    table: list = [None] * 64
    for t in permutations(range(4)):
        row = []
        for mu in _FOUR_MATCHINGS:
            seen = [False] * 4
            cycles = 0
            for start in range(4):
                x = start
                if not seen[x]:
                    cycles += 1
                    while not seen[x]:
                        seen[x] = True
                        x = t[mu[x]]
            row.append(cycles)
        table[t[0] << 4 | t[1] << 2 | t[2]] = tuple(row)
    return tuple(table)


_CLOSES = _closing_table()


@functools.cache
def _tabulate(length: int, mode: str) -> Mapping[tuple[int, int, int, int], int]:
    """Tally the matchings of ``length`` points in one depth-first search.

    Mode "full" visits every full matching, "shape" only the shapes, and
    "mm" the macromolecular pass: partial matchings without 1-chords, with
    the smallest stack tracked.  Keys are (boundary cycles, chords, 1-chords,
    smallest stack); a diagram without chords reports length // 2 + 1, past
    every stack, and a full matching 0.  Cycles count the diagram with its
    unmatched vertices deleted, and the empty diagram bounds one.  Each
    tally is searched once per process and handed out read-only; the caps
    of its callers bound the keys to a few dozen.
    """
    shapes = mode == "shape"
    partial = mode == "mm"
    no_stack = length // 2 + 1 if partial else 0  # past any stack of length points
    counts: dict[tuple[int, int, int, int], int] = {}
    if length == 0:
        counts[(1, 0, 0, no_stack)] = 1
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
    rank = [0] * length  # the order of the four undecided vertices of a closing step

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
                key = (cyc1, k + 1, m + one, low1)
                counts[key] = counts.get(key, 0) + 1
            elif rest == 1:
                # the one undecided vertex stays unmatched and closes the
                # last open path
                if 0 < run1 < low1:
                    low1 = run1
                key = (cyc1 + 1, k + 1, m + one, low1)
                counts[key] = counts.get(key, 0) + 1
            elif rest == 4 and not partial:
                # the last two chords in one step: the open paths run from
                # the heads x+1 to the tails T(x) = other[x+1] of the four
                # undecided x, and each matching mu closes the cycles of
                # x -> T(mu(x)), read off the table by the order of T
                a = nxt[length]
                b = nxt[a]
                c = nxt[b]
                d = nxt[c]
                rank[a] = 0
                rank[b] = 1
                rank[c] = 2
                rank[d] = 3
                ab_cd, ac_bd, ad_bc = _CLOSES[
                    rank[other[a + 1]] << 4 | rank[other[b + 1]] << 2 | rank[other[c + 1]]
                ]
                k1 = k + 3
                m1 = m + one
                # A shape stacks no chord: a may not take the vertex right
                # inside the chord around it, and (b, c) may not sit right
                # inside (a, d).  No other new chord can stack, since every
                # decided vertex past a has its partner before a.
                barred = partner[a - 1] - 1 if shapes else -1
                if barred != b:
                    key = (cyc1 + ab_cd, k1, m1 + (b == a + 1) + (d == c + 1), low1)
                    counts[key] = counts.get(key, 0) + 1
                if barred != c:
                    key = (cyc1 + ac_bd, k1, m1, low1)
                    counts[key] = counts.get(key, 0) + 1
                if barred != d and not (shapes and b == a + 1 and c == d - 1):
                    key = (cyc1 + ad_bc, k1, m1 + (c == b + 1), low1)
                    counts[key] = counts.get(key, 0) + 1
            else:
                visit(rest, cyc1, k + 1, m + one, run1, low1)
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

    visit(length, 0, 0, 0, 0, no_stack)
    return MappingProxyType(counts)


def _full_entries(n_max: int, mode: str) -> dict[tuple[int, ...], int]:
    # (g, n, m) -> count over full diagrams, or over shapes in mode "shape"
    _check_cap(n_max, DEFAULT_FULL_CAP, "full diagram")
    entries: dict[tuple[int, ...], int] = {}
    for n in range(n_max + 1):
        for (cycles, _k, m, _low), v in _tabulate(2 * n, mode).items():
            entries[(_genus_of(n, cycles), n, m)] = v
    return entries


# ---------------------------------------------------------------------------
# public streams
# ---------------------------------------------------------------------------


def enumerate_chord_diagrams(n: int) -> Iterator[ChordDiagram]:
    """Every full diagram with n chords, each exactly once, in canonical order."""
    _check_cap(n, DEFAULT_FULL_CAP, "full diagram")
    return _diagrams(ChordDiagram, 2 * n, _gathers(False))


def enumerate_partial_diagrams(n: int) -> Iterator[PartialDiagram]:
    """Every partial diagram on n backbone vertices, each exactly once."""
    _check_cap(n, DEFAULT_PARTIAL_CAP, "partial diagram")
    return _diagrams(PartialDiagram, n, _gathers(True))


# ---------------------------------------------------------------------------
# counting tables
# ---------------------------------------------------------------------------


def count_by_genus(n_max: int) -> GenusTable:
    """c_g(n) for all n <= n_max by exhaustive genus evaluation."""
    entries: dict[tuple[int, ...], int] = {}
    for (g, n, _m), v in _full_entries(n_max, "full").items():
        entries[(g, n)] = entries.get((g, n), 0) + v
    return GenusTable("full", n_max, entries)


def count_by_genus_onechords(n_max: int) -> GenusTable:
    """Joint counts c_g(n, m) over full diagrams, m the 1-chord number."""
    entries = _full_entries(n_max, "full")
    return GenusTable("full", n_max, entries, with_onechords=True)


def count_shapes(n_max: int) -> GenusTable:
    """Joint counts s_g(n, m) over shapes (every stack a single chord)."""
    entries = _full_entries(n_max, "shape")
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
        for (cycles, chords, _m, smallest), v in _tabulate(n, "mm").items():
            key = (_genus_of(chords, cycles), n)
            for s in sig:
                if not chords or smallest >= s:
                    t = tables[s]
                    t[key] = t.get(key, 0) + v
    return {s: GenusTable("macromolecular", n_max, tables[s]) for s in sig}
