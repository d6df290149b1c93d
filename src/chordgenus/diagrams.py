"""Linear chord diagrams and partial diagrams on a segment backbone.

A diagram on vertices 1..N (drawn on a line, in order) matches some vertices
in pairs by chords; a full diagram matches every vertex.  The boundary-cycle
count of a full diagram with n chords is the number of cycles of tau o iota,
where iota is the chord involution and tau is the cyclic successor on the
2n vertices, and the genus g satisfies n + 1 - 2g = #cycles.

A partial diagram is measured by its matched subdiagram (unmatched vertices
deleted), but every query reads the partner array as it stands.  The boundary
walk sends an unmatched vertex v to v+1, so from a matched w it goes to
partner(w)+1 and over the unmatched run there to the next matched vertex,
where tau o iota goes in the subdiagram: the cycles are the subdiagram's.

A diagram handed out by a stream (``bruteforce``) mostly carries its
classification: ``boundary_cycles()``, ``genus()``, ``one_chord_count()``
and ``is_shape()`` read it instead of walking the array.  Every other query
walks the array.  A checked diagram (built through ``__init__``, which a
pickle round trip also takes), a ``project_shape()`` result and the first
diagram of each node of a stream's walk carry none.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import repeat
from typing import Iterable, Sequence

Pair = tuple[int, int]

_UNMATCHED = -1


def _cycle_count(partners: Sequence[int]) -> int:
    # cycles of v -> iota(v + 1) on 0-indexed vertices mod L, iota the
    # partner map with an unmatched vertex standing in for its own partner;
    # the map is conjugate to v -> iota(v) + 1.  Each vertex walked is
    # crossed out of the successor list.
    length = len(partners)
    if length == 0:
        return 1  # the empty diagram bounds a single face
    last = length - 1
    succ = [*partners[1:], partners[0]]  # iota(v + 1), -1 if v + 1 is unmatched
    cycles = 0
    for start in range(length):
        w = succ[start]
        if w is None:
            continue
        cycles += 1
        v = start
        while w is not None:
            succ[v] = None
            if w < 0:
                w = v + 1 if v < last else 0
            v = w
            w = succ[v]
    return cycles


def _is_shape_partner(partners: Sequence[int]) -> bool:
    # no chord (i, j) has the chord (i+1, j-1) directly inside it
    for i, j in enumerate(partners):
        if j > i + 2 and partners[i + 1] == j - 1:
            return False
    return True


def _stacks(partners: Sequence[int]) -> dict[int, int]:
    # left end of each stack's outermost chord -> the stack's chord count,
    # walked inward from that chord; keys ascend
    out = {}
    for i, j in enumerate(partners):
        if j <= i or (i and partners[i - 1] == j + 1):
            continue  # not a chord's left end, or not outermost in its stack
        size = 1
        while j - i > 2 * size and partners[i + size] == j - size:
            size += 1
        out[i] = size
    return out


def _validate_partners(partners: Sequence[int], allow_unmatched: bool) -> None:
    length = len(partners)
    if length % 2 and not allow_unmatched:
        raise ValueError("a full chord diagram has an even number of vertices")
    for v, p in enumerate(partners):
        if p == _UNMATCHED:
            if allow_unmatched:
                continue
            raise ValueError(f"vertex {v + 1} is unmatched in a full chord diagram")
        if not 0 <= p < length:
            raise ValueError(f"partner of vertex {v + 1} out of range")
        if p == v:
            raise ValueError(f"vertex {v + 1} is paired with itself")
        if partners[p] != v:
            raise ValueError(
                f"pairing is not an involution: {v + 1} -> {p + 1} -> {partners[p] + 1}"
            )


def _partners_from_pairs(length: int, pairs: Iterable[Pair]) -> list[int]:
    # 0-indexed partner array of 1-indexed chords on `length` vertices
    if length < 0:
        raise ValueError(f"vertex count must be >= 0, got {length}")
    partners = [_UNMATCHED] * length
    for i, j in pairs:
        for v in (i, j):
            if not 1 <= v <= length:
                raise ValueError(f"vertex {v} out of range 1..{length}")
        if i == j:
            raise ValueError(f"chord ({i}, {j}) pairs a vertex with itself")
        if partners[i - 1] != _UNMATCHED or partners[j - 1] != _UNMATCHED:
            raise ValueError(f"vertex reused by chord ({i}, {j})")
        partners[i - 1] = j - 1
        partners[j - 1] = i - 1
    return partners


def _genus_of(chords: int, cycles: int) -> int:
    # n + 1 - 2g = #cycles
    num = chords + 1 - cycles
    if num % 2:
        raise ArithmeticError(f"parity violation: {chords} chords, {cycles} cycles")
    return num // 2


class _Diagram:
    """An immutable partner array: partners[v] is v's partner, -1 if unmatched.

    Equality, hashing and repr are keyed on the concrete type and the array
    alone, so a full diagram never equals the partial diagram with the same
    array.  ``_tally`` is None, or for a streamed diagram the classification
    (boundary cycles, genus, 1-chords, shape flag) that the stream worked out
    for it, the flag None for a partial diagram; ``boundary_cycles()``,
    ``genus()``, ``one_chord_count()`` and ``is_shape()`` read it when it is
    set.
    """

    __slots__ = ("partners", "_tally")

    partners: tuple[int, ...]
    _tally: tuple | None
    _allow_unmatched = False

    def __init__(self, partners: Iterable[int]):
        p = tuple(partners)
        _validate_partners(p, self._allow_unmatched)
        _set_partners(self, p)
        _set_tally(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, never through setattr
        return (type(self), (self.partners,))

    @classmethod
    def from_text(cls, text: str):
        """Parse the canonical encoding 'n;p(1),p(2),...' with 0 for unmatched."""
        head, sep, body = text.partition(";")
        if not sep:
            raise ValueError("diagram text needs the form 'n;p(1),p(2),...'")
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"bad vertex count {head!r}") from None
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        entries = [s.strip() for s in body.split(",")] if body.strip() else []
        if n == 0 and not entries:
            return cls(())
        if len(entries) != n:
            raise ValueError(f"expected {n} partner entries, got {len(entries)}")
        try:
            values = [int(s) for s in entries]
        except ValueError:
            raise ValueError("partner entries must be integers") from None
        return cls(v - 1 if v else _UNMATCHED for v in values)

    def pairs(self) -> list[Pair]:
        """1-indexed chords (i, j) with i < j, ascending in i."""
        return [(v + 1, p + 1) for v, p in enumerate(self.partners) if p > v]

    def one_chord_count(self) -> int:
        """Chords joining neighbouring vertices."""
        tally = self._tally
        if tally is not None:
            return tally[2]
        p = self.partners
        return sum(map(operator.eq, p, range(1, len(p) + 1)))

    def boundary_cycles(self) -> int:
        """Boundary cycles of the matched subdiagram (1 without chords)."""
        tally = self._tally
        if tally is not None:
            return tally[0]
        return _cycle_count(self.partners)

    def genus(self) -> int:
        """Genus of the matched subdiagram."""
        tally = self._tally
        if tally is not None:
            return tally[1]
        p = self.partners
        return _genus_of((len(p) - p.count(_UNMATCHED)) // 2, _cycle_count(p))

    def stacks(self) -> list[list[Pair]]:
        """Maximal runs of chords (i, j), (i+1, j-1), ..., outermost first."""
        # a stack's left ends are consecutive vertices, so its chords are
        # consecutive in pairs(), and the stacks come in the same order
        pairs = self.pairs()
        out, r = [], 0
        for size in _stacks(self.partners).values():
            out.append(pairs[r : r + size])
            r += size
        return out

    def project_shape(self) -> "ChordDiagram":
        """Delete unmatched vertices and collapse every stack to one chord.

        Collapsing can bring previously separated chords next to each other,
        so the pass repeats until it drops nothing and the result is a shape.
        """
        p = self.partners
        while True:
            # the ends of each stack's outermost chord (unmatched ones lie in none)
            kept = sorted(v for i in _stacks(p) for v in (i, p[i]))
            if len(kept) == len(p):
                return _trusted(ChordDiagram, p)
            rank = [_UNMATCHED] * len(p)
            for new, v in enumerate(kept):
                rank[v] = new
            p = tuple(rank[p[v]] for v in kept)

    def to_text(self) -> str:
        body = ",".join(str(p + 1) for p in self.partners)  # -1 (unmatched) -> 0
        return f"{len(self.partners)};{body}"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.partners == other.partners

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.partners))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_text({self.to_text()!r})"


# the slots' own setters, which the refusing __setattr__ does not see
_set_partners = _Diagram.partners.__set__
_set_tally = _Diagram._tally.__set__


# _trusted and _trusted_batch are the one way past validation, for partner
# tuples that the streams or the shape projection built and that are valid
# by construction, and for the classification a stream worked out for each


def _trusted(cls, partners: tuple[int, ...], tally: tuple | None = None):
    d = object.__new__(cls)
    _set_partners(d, partners)
    _set_tally(d, tally)
    return d


def _trusted_batch(cls, count: int, partners: Iterable, tallies: Iterable) -> list:
    # `count` diagrams at once, each setter mapped over the batch in C
    out = list(map(object.__new__, repeat(cls, count)))
    deque(map(_set_partners, out, partners), 0)
    deque(map(_set_tally, out, tallies), 0)
    return out


class ChordDiagram(_Diagram):
    """A full linear chord diagram: n chords on 2n ordered vertices."""

    __slots__ = ()

    @classmethod
    def empty(cls) -> "ChordDiagram":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "ChordDiagram":
        pairs = list(pairs)
        return cls(_partners_from_pairs(2 * len(pairs), pairs))

    @property
    def n(self) -> int:
        """Number of chords."""
        return len(self.partners) // 2

    def is_shape(self) -> bool:
        """True when every stack has a single chord."""
        tally = self._tally
        if tally is not None:
            return tally[3]
        return _is_shape_partner(self.partners)

    def to_partial(self) -> "PartialDiagram":
        return PartialDiagram(self.partners)


class PartialDiagram(_Diagram):
    """A partial matching of n ordered vertices; unmatched vertices allowed."""

    __slots__ = ()

    _allow_unmatched = True

    @classmethod
    def empty(cls, n: int = 0) -> "PartialDiagram":
        return cls.from_pairs(n, ())

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "PartialDiagram":
        return cls(_partners_from_pairs(n, pairs))

    @property
    def n(self) -> int:
        """Number of backbone vertices."""
        return len(self.partners)

    def min_stack_size(self) -> int | None:
        """Size of the smallest stack, None when there are no chords."""
        sizes = _stacks(self.partners).values()
        return min(sizes) if sizes else None

    def is_macromolecular(self, sigma: int) -> bool:
        """No chord on adjacent vertices, and every stack holds >= sigma chords."""
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if self.one_chord_count():
            return False
        smallest = self.min_stack_size()
        return smallest is None or smallest >= sigma
