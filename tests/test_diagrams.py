import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordgenus.diagrams import ChordDiagram, PartialDiagram


def test_empty_diagram():
    d = ChordDiagram.empty()
    assert d.n == 0
    assert d.boundary_cycles() == 1
    assert d.genus() == 0
    assert d.is_shape()


def test_single_chord():
    d = ChordDiagram.from_pairs([(1, 2)])
    assert d.boundary_cycles() == 2
    assert d.genus() == 0
    assert d.one_chord_count() == 1


def test_crossing_and_nesting():
    crossing = ChordDiagram.from_pairs([(1, 3), (2, 4)])
    assert crossing.boundary_cycles() == 1
    assert crossing.genus() == 1
    nesting = ChordDiagram.from_pairs([(1, 4), (2, 3)])
    assert nesting.boundary_cycles() == 3
    assert nesting.genus() == 0
    side_by_side = ChordDiagram.from_pairs([(1, 2), (3, 4)])
    assert side_by_side.genus() == 0


def test_four_chord_example():
    # iota = (1,5)(2,3)(4,7)(6,8): tau o iota = (1,6)(2,4,8,7,5)(3)
    d = ChordDiagram.from_pairs([(1, 5), (2, 3), (4, 7), (6, 8)])
    assert d.boundary_cycles() == 3
    assert d.genus() == 1


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        ChordDiagram([1, 0, 3])  # odd vertex count
    with pytest.raises(ValueError):
        ChordDiagram([0, 1])  # fixed point at vertex 1
    with pytest.raises(ValueError):
        ChordDiagram([2, 0, 3, 1])  # not an involution
    with pytest.raises(ValueError):
        ChordDiagram.from_pairs([(1, 2), (2, 3)])  # vertex reused
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        PartialDiagram.empty(-1)
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        PartialDiagram.from_pairs(-2, [])


def test_text_round_trip():
    d = ChordDiagram.from_pairs([(1, 5), (2, 3), (4, 7), (6, 8)])
    assert d.to_text() == "8;5,3,2,7,1,8,4,6"
    assert ChordDiagram.from_text(d.to_text()) == d
    p = PartialDiagram.from_pairs(4, [(2, 3)])
    assert p.to_text() == "4;0,3,2,0"
    assert PartialDiagram.from_text("4;0,3,2,0") == p
    assert PartialDiagram.from_text("0;") == PartialDiagram.empty()


def test_text_parsing_rejects_malformed():
    for bad in ["4;1,2,3", "x;1,2", "2;1,1", "2;3,4", "no-semicolon", "-1;"]:
        with pytest.raises(ValueError):
            PartialDiagram.from_text(bad)
    with pytest.raises(ValueError):
        ChordDiagram.from_text("4;0,3,2,0")  # partial, not full


def test_partial_genus_by_deletion():
    p = PartialDiagram.from_pairs(4, [(2, 3)])
    assert p.genus() == 0
    assert PartialDiagram.empty(3).genus() == 0
    # crossing with interleaved unmatched vertices keeps genus 1
    q = PartialDiagram.from_pairs(6, [(1, 4), (3, 6)])
    assert q.genus() == 1


def test_stacks():
    d = ChordDiagram.from_pairs([(1, 4), (2, 3)])
    assert d.stacks() == [[(1, 4), (2, 3)]]
    assert not d.is_shape()
    triple = ChordDiagram.from_pairs([(1, 6), (2, 5), (3, 4)])
    assert triple.stacks() == [[(1, 6), (2, 5), (3, 4)]]
    crossing = ChordDiagram.from_pairs([(1, 3), (2, 4)])
    assert crossing.stacks() == [[(1, 3)], [(2, 4)]]
    assert crossing.is_shape()
    # stacks need consecutive endpoints on both sides
    p = PartialDiagram.from_pairs(6, [(1, 5), (2, 6)])
    assert len(p.stacks()) == 2


def test_one_chords():
    d = ChordDiagram.from_pairs([(1, 4), (2, 3)])
    assert d.one_chord_count() == 1
    p = PartialDiagram.from_pairs(5, [(1, 2), (3, 4)])
    assert p.one_chord_count() == 2


def test_macromolecular_predicate():
    doubled_crossing = PartialDiagram.from_pairs(8, [(1, 6), (2, 5), (3, 8), (4, 7)])
    assert doubled_crossing.is_macromolecular(1)
    assert doubled_crossing.is_macromolecular(2)
    assert not doubled_crossing.is_macromolecular(3)
    assert doubled_crossing.genus() == 1
    with_one_chord = PartialDiagram.from_pairs(4, [(1, 4), (2, 3)])
    assert not with_one_chord.is_macromolecular(1)
    assert PartialDiagram.empty(5).is_macromolecular(3)
    with pytest.raises(ValueError):
        PartialDiagram.empty(2).is_macromolecular(0)


def test_project_shape_collapses_stack():
    d = PartialDiagram.from_pairs(4, [(1, 4), (2, 3)])
    assert d.project_shape() == ChordDiagram.from_pairs([(1, 2)])
    shape = ChordDiagram.from_pairs([(1, 3), (2, 4)])
    assert shape.project_shape() == shape


def test_project_shape_needs_second_pass():
    # chords (1,7),(3,5) are separated stacks, but become one after deletion
    d = PartialDiagram.from_pairs(7, [(1, 7), (3, 5)])
    assert d.project_shape() == ChordDiagram.from_pairs([(1, 2)])
    assert d.genus() == 0


def _double_chord(pairs, which):
    """Insert a parallel copy just inside chord `which`, on 2 more vertices."""
    i, j = pairs[which]

    def bump(v):
        if v <= i:
            return v
        if v < j:
            return v + 1
        return v + 2

    out = [(bump(a), bump(b)) for a, b in pairs]
    out.append((i + 1, j + 1))
    return out


def test_genus_invariant_under_chord_doubling():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 5)
        verts = list(range(1, 2 * n + 1))
        rng.shuffle(verts)
        pairs = [tuple(sorted(verts[2 * k : 2 * k + 2])) for k in range(n)]
        d = ChordDiagram.from_pairs(pairs)
        for which in range(n):
            doubled = ChordDiagram.from_pairs(_double_chord(pairs, which))
            assert doubled.genus() == d.genus()
            assert doubled.project_shape() == d.project_shape()


def test_projection_idempotent_exhaustively():
    from chordgenus.bruteforce import enumerate_partial_diagrams

    for n in range(6):
        for d in enumerate_partial_diagrams(n):
            once = d.project_shape()
            assert once.is_shape()
            assert once.project_shape() == once


def test_projection_preserves_genus_exhaustively():
    from chordgenus.bruteforce import enumerate_partial_diagrams

    for n in range(9):
        for d in enumerate_partial_diagrams(n):
            assert d.project_shape().genus() == d.genus()


def test_projection_preserves_onechords_on_full_diagrams():
    from chordgenus.bruteforce import enumerate_chord_diagrams

    for n in range(5):
        for d in enumerate_chord_diagrams(n):
            assert d.project_shape().one_chord_count() == d.one_chord_count()


@st.composite
def partner_arrays(draw, max_vertices=14):
    """A random partial matching; even vertex counts may come out full."""
    n = draw(st.integers(0, max_vertices))
    order = draw(st.permutations(range(n)))
    chords = draw(st.integers(0, n // 2))
    partners = [-1] * n
    for t in range(chords):
        a, b = order[2 * t], order[2 * t + 1]
        partners[a], partners[b] = b, a
    return partners


# ---------------------------------------------------------------------------
# witnesses: the routes the partner-array walks replaced, kept here to check
# them against.  They work on 1-indexed pair lists and a renumbered copy.
# ---------------------------------------------------------------------------


def witness_stacks(pairs):
    # stacks walked on a set of pairs, outermost chord first
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


def witness_matched_subdiagram(partners):
    # delete the unmatched vertices and renumber the rest
    kept = [v for v, p in enumerate(partners) if p != -1]
    rank = {v: i for i, v in enumerate(kept)}
    return ChordDiagram(tuple(rank[partners[v]] for v in kept))


def witness_boundary_cycles(partners):
    # cycles of tau o iota on the renumbered full diagram
    full = witness_matched_subdiagram(partners).partners
    length = len(full)
    seen = [False] * length
    cycles = 0
    for start in range(length):
        if not seen[start]:
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = (full[v] + 1) % length
    return max(cycles, 1)  # the empty diagram bounds one face


def witness_genus(partners):
    chords = witness_matched_subdiagram(partners).n
    return (chords + 1 - witness_boundary_cycles(partners)) // 2


def witness_project_shape(partners):
    # renumber, collapse each stack to its outermost chord, repeat
    pairs = [(v + 1, p + 1) for v, p in enumerate(partners) if p > v]
    while True:
        verts = sorted(v for pair in pairs for v in pair)
        rank = {v: i + 1 for i, v in enumerate(verts)}
        pairs = [(rank[i], rank[j]) for i, j in pairs]
        groups = witness_stacks(pairs)
        if all(len(s) == 1 for s in groups):
            return ChordDiagram.from_pairs(sorted(pairs))
        pairs = [group[0] for group in groups]


def assert_matches_witnesses(d):
    p = d.partners
    stacks = witness_stacks(d.pairs())
    assert d.stacks() == stacks
    assert d.boundary_cycles() == witness_boundary_cycles(p)
    assert d.genus() == witness_genus(p)
    assert d.project_shape() == witness_project_shape(p)
    smallest = min((len(s) for s in stacks), default=None)
    if isinstance(d, ChordDiagram):
        assert d.is_shape() == all(len(s) == 1 for s in stacks)
        assert d.to_partial().min_stack_size() == smallest
    else:
        assert d.min_stack_size() == smallest


def test_partial_diagrams_match_witnesses_exhaustively():
    from chordgenus.bruteforce import enumerate_partial_diagrams

    for n in range(11):
        for d in enumerate_partial_diagrams(n):
            assert_matches_witnesses(d)


def test_full_diagrams_match_witnesses_exhaustively():
    from chordgenus.bruteforce import enumerate_chord_diagrams

    for n in range(7):
        for d in enumerate_chord_diagrams(n):
            assert_matches_witnesses(d)


@settings(max_examples=300, deadline=None)
@given(partner_arrays())
def test_partner_scans_agree_with_stacks(partners):
    assert_matches_witnesses(PartialDiagram(partners))
    if -1 not in partners:
        assert_matches_witnesses(ChordDiagram(partners))


PINNED_NAMES = {ChordDiagram: "ChordDiagram", PartialDiagram: "PartialDiagram"}


@settings(max_examples=100, deadline=None)
@given(partner_arrays())
def test_text_repr_and_hash_round_trip(partners):
    p = tuple(partners)
    diagrams = [PartialDiagram(p)]
    if -1 not in p:
        diagrams.append(ChordDiagram(p))
        assert ChordDiagram(p) != PartialDiagram(p)
    for d in diagrams:
        cls = type(d)
        assert cls.from_text(d.to_text()) == d
        assert eval(repr(d)) == d
        assert repr(d) == f"{PINNED_NAMES[cls]}.from_text({d.to_text()!r})"
        assert hash(d) == hash((PINNED_NAMES[cls], p))


TEXT_ALPHABET = "0123456789;,- x"


@st.composite
def diagram_texts(draw):
    """Free text over the encoding's alphabet, or a canonical text with one
    character replaced."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=TEXT_ALPHABET, max_size=24))
    text = PartialDiagram(draw(partner_arrays(max_vertices=8))).to_text()
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from(TEXT_ALPHABET)) + text[at + 1 :]


@settings(max_examples=100, deadline=None)
@given(diagram_texts())
def test_malformed_text_raises_only_value_error(text):
    for cls in (ChordDiagram, PartialDiagram):
        try:
            d = cls.from_text(text)
        except ValueError:
            continue
        assert cls.from_text(d.to_text()) == d
