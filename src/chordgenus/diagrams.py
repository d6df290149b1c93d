"""Linear chord diagrams and partial diagrams on a segment backbone.

A diagram on vertices 1..N (drawn on a line, in order) matches some vertices
in pairs by chords; a full diagram matches every vertex.  The boundary-cycle
count of a full diagram with n chords is the number of cycles of tau o iota,
where iota is the chord involution and tau is the cyclic successor on the
2n vertices, and the genus g satisfies n + 1 - 2g = #cycles.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Pair = tuple[int, int]

_UNMATCHED = -1


def _cycle_count(partners: Sequence[int]) -> int:
    # cycles of v -> (partners[v] + 1) mod L on 0-indexed vertices
    length = len(partners)
    if length == 0:
        return 1  # the empty diagram bounds a single face
    seen = bytearray(length)
    cycles = 0
    for start in range(length):
        if seen[start]:
            continue
        cycles += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            w = partners[v] + 1
            v = w if w < length else 0
    return cycles


def _is_shape_partner(partners: Sequence[int]) -> bool:
    # no chord (i, j) has the chord (i+1, j-1) directly inside it
    for i, j in enumerate(partners):
        if j > i + 2 and partners[i + 1] == j - 1:
            return False
    return True


def _min_stack_size(partners: Sequence[int]) -> int | None:
    # smallest stack, walked from each outermost chord; None without chords
    best: int | None = None
    for i, j in enumerate(partners):
        if j <= i or (i and partners[i - 1] == j + 1):
            continue  # not a chord's left end, or not outermost in its stack
        size, a, b = 1, i, j
        while b - a > 2 and partners[a + 1] == b - 1:
            size, a, b = size + 1, a + 1, b - 1
        if best is None or size < best:
            best = size
    return best


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


def _stacks_of_pairs(pairs: Iterable[Pair]) -> list[list[Pair]]:
    chord_set = set(pairs)
    out = []
    for i, j in sorted(chord_set):
        if (i - 1, j + 1) in chord_set:
            continue  # not the outermost chord of its stack
        stack = [(i, j)]
        while (i + 1, j - 1) in chord_set and i + 1 < j - 1:
            i, j = i + 1, j - 1
            stack.append((i, j))
        out.append(stack)
    return out


class _Diagram:
    """An immutable partner array: partners[v] is v's partner, -1 if unmatched.

    Equality, hashing and repr are keyed on the concrete type, so a full
    diagram never equals the partial diagram with the same array.
    """

    __slots__ = ("partners",)

    partners: tuple[int, ...]
    _allow_unmatched = False

    def __init__(self, partners: Iterable[int]):
        p = tuple(partners)
        _validate_partners(p, self._allow_unmatched)
        object.__setattr__(self, "partners", p)

    @classmethod
    def _trusted(cls, partners: tuple[int, ...]):
        # an array the enumerator built is valid by construction
        d = object.__new__(cls)
        object.__setattr__(d, "partners", partners)
        return d

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return sum(1 for v, p in enumerate(self.partners) if p == v + 1)

    def stacks(self) -> list[list[Pair]]:
        return _stacks_of_pairs(self.pairs())

    def to_text(self) -> str:
        body = ",".join(str(p + 1) for p in self.partners)  # -1 (unmatched) -> 0
        return f"{len(self.partners)};{body}"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.partners == other.partners

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.partners))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_text({self.to_text()!r})"


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

    def boundary_cycles(self) -> int:
        return _cycle_count(self.partners)

    def genus(self) -> int:
        return _genus_of(self.n, self.boundary_cycles())

    def is_shape(self) -> bool:
        """True when every stack has a single chord."""
        return _is_shape_partner(self.partners)

    def to_partial(self) -> "PartialDiagram":
        return PartialDiagram(self.partners)

    def project_shape(self) -> "ChordDiagram":
        return self.to_partial().project_shape()


class PartialDiagram(_Diagram):
    """A partial matching of n ordered vertices; unmatched vertices allowed."""

    __slots__ = ()

    _allow_unmatched = True

    @classmethod
    def empty(cls, n: int = 0) -> "PartialDiagram":
        return cls((_UNMATCHED,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "PartialDiagram":
        return cls(_partners_from_pairs(n, pairs))

    @property
    def n(self) -> int:
        """Number of backbone vertices."""
        return len(self.partners)

    def unmatched_count(self) -> int:
        return sum(1 for p in self.partners if p == _UNMATCHED)

    def matched_subdiagram(self) -> ChordDiagram:
        """Delete unmatched vertices and renumber the rest."""
        kept = [v for v, p in enumerate(self.partners) if p != _UNMATCHED]
        rank = {v: i for i, v in enumerate(kept)}
        return ChordDiagram(tuple(rank[self.partners[v]] for v in kept))

    def genus(self) -> int:
        return self.matched_subdiagram().genus()

    def boundary_cycles(self) -> int:
        return self.matched_subdiagram().boundary_cycles()

    def min_stack_size(self) -> int | None:
        """Size of the smallest stack, None when there are no chords."""
        return _min_stack_size(self.partners)

    def is_macromolecular(self, sigma: int) -> bool:
        """No chord on adjacent vertices, and every stack holds >= sigma chords."""
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if self.one_chord_count():
            return False
        smallest = self.min_stack_size()
        return smallest is None or smallest >= sigma

    def project_shape(self) -> ChordDiagram:
        """Delete unmatched vertices and collapse every stack to one chord.

        Collapsing can bring previously separated chords next to each other,
        so the pass repeats until the result is a shape.
        """
        pairs = self.pairs()
        while True:
            # renumber onto the matched vertices only
            verts = sorted(v for pair in pairs for v in pair)
            rank = {v: i + 1 for i, v in enumerate(verts)}
            pairs = [(rank[i], rank[j]) for i, j in pairs]
            groups = _stacks_of_pairs(pairs)
            if all(len(s) == 1 for s in groups):
                return ChordDiagram.from_pairs(sorted(pairs))
            pairs = [group[0] for group in groups]
