import pickle
import sys
from collections import Counter
from itertools import islice, zip_longest
from operator import attrgetter

import pytest

from chordgenus import bruteforce, genfunc
from chordgenus.bruteforce import (
    DEFAULT_FULL_CAP,
    DEFAULT_PARTIAL_CAP,
    count_by_genus,
    count_by_genus_onechords,
    count_macromolecular,
    count_macromolecular_multi,
    count_shapes,
    double_factorial_odd,
    enumerate_chord_diagrams,
    enumerate_partial_diagrams,
)
from chordgenus.diagrams import ChordDiagram, PartialDiagram, _validate_partners

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]
TELEPHONE = [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_double_factorial():
    assert [double_factorial_odd(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


def test_stream_is_exhaustive_and_duplicate_free():
    for n in range(5):
        seen = set(enumerate_chord_diagrams(n))
        assert len(seen) == double_factorial_odd(n)


def test_partial_stream_counts_match_telephone_numbers():
    for n in range(9):
        assert sum(1 for _ in enumerate_partial_diagrams(n)) == TELEPHONE[n]


def test_caps_guard_large_inputs():
    with pytest.raises(ValueError):
        count_by_genus(DEFAULT_FULL_CAP + 1)
    with pytest.raises(ValueError):
        next(enumerate_partial_diagrams(DEFAULT_PARTIAL_CAP + 1))


def test_counts_by_genus_small():
    tbl = count_by_genus(6)
    for n in range(7):
        assert tbl.total(n) == double_factorial_odd(n)
        assert tbl.count(0, n) == CATALAN[n]
    assert tbl.count(1, 2) == 1
    assert tbl.count(1, 3) == 10
    assert tbl.count(2, 4) == 21
    assert tbl.count(3, 6) == 1485
    for n in range(7):
        for g in range(n // 2 + 1, n + 2):
            assert tbl.count(g, n) == 0


def test_determinism():
    assert count_by_genus(5) == count_by_genus(5)
    assert count_shapes(4) == count_shapes(4)


def test_joint_onechord_table_marginalizes():
    joint = count_by_genus_onechords(5)
    plain = count_by_genus(5)
    marginal = Counter()
    for (g, n, _m), v in joint.entries.items():
        marginal[(g, n)] += v
    assert dict(marginal) == plain.entries
    # n=1: the only diagram is a single 1-chord
    assert joint.count(0, 1, 1) == 1
    assert joint.count(0, 1, 0) == 0
    assert joint.total(1) == 1


def test_shape_counts_are_a_subtable():
    shapes = count_shapes(5)
    full = count_by_genus_onechords(5)
    assert shapes.count(0, 1, 1) == 1
    for key, v in shapes.entries.items():
        assert v <= full.entries.get(key, 0)
    # stacks of size two are not shapes: (1,4),(2,3) drops out at n=2
    assert shapes.count(0, 2) == full.count(0, 2) - 1


def test_macromolecular_counts():
    with pytest.raises(ValueError):
        count_macromolecular(3, 0)
    by_sigma = count_macromolecular_multi(8, (1, 2, 3))
    assert by_sigma[1].count(1, 4) == 1  # the bare crossing
    assert by_sigma[2].count(1, 8) == 1  # the doubled crossing
    assert by_sigma[2].count(1, 7) == 0
    for n in range(9):
        # the chordless diagram qualifies for every sigma
        assert by_sigma[3].count(0, n) >= 1
    # larger sigma only removes diagrams
    for key, v in by_sigma[3].entries.items():
        assert v <= by_sigma[2].entries.get(key, 0)
    for key, v in by_sigma[2].entries.items():
        assert v <= by_sigma[1].entries.get(key, 0)


def test_oracle_tables_cover_every_genus_but_only_their_chord_range():
    full = count_by_genus(4)
    assert full.count(5, 4) == 0  # the oracle saw every genus
    joint = count_by_genus_onechords(3)
    assert joint.count(7, 3, 0) == 0 and joint.count(7, 3) == 0
    assert joint.count(1, 3) == full.count(1, 3)
    shapes, mm = count_shapes(2), count_macromolecular(4, 1)
    for table, key in (
        (full, (0, 5)), (joint, (0, 4, 0)), (joint, (0, 4)), (shapes, (0, 3, 1)), (mm, (0, 5))
    ):
        with pytest.raises(IndexError, match="outside this table"):
            table.count(*key)


def test_mm_single_sigma_matches_multi():
    multi = count_macromolecular_multi(7, (2,))[2]
    single = count_macromolecular(7, 2)
    assert single == multi


def test_negative_n_max_is_rejected():
    for count in (count_by_genus, count_by_genus_onechords, count_shapes):
        with pytest.raises(ValueError, match="n >= 0"):
            count(-1)
    with pytest.raises(ValueError, match="n >= 0"):
        count_macromolecular(-1, 2)
    with pytest.raises(ValueError, match="n >= 0"):
        count_macromolecular_multi(-3, (1, 2))


def test_full_tables_match_public_stream_tallies():
    # the tally closes each node's completions by signature; each streamed
    # array is classified from scratch through a checked rebuild, which
    # carries none of the stream's own classification.  n <= 4 is the root
    # alone, and n = 5, 6 close nodes below it.
    n_max = 6
    joint, shapes = Counter(), Counter()
    for n in range(n_max + 1):
        for d in map(ChordDiagram, map(attrgetter("partners"), enumerate_chord_diagrams(n))):
            key = (d.genus(), n, d.one_chord_count())
            joint[key] += 1
            if d.is_shape():
                shapes[key] += 1
    plain = Counter()
    for (g, n, _m), v in joint.items():
        plain[(g, n)] += v
    assert count_by_genus_onechords(n_max).entries == dict(joint)
    assert count_shapes(n_max).entries == dict(shapes)
    assert count_by_genus(n_max).entries == dict(plain)


def test_full_tables_at_n7_match_the_bivariate_series():
    # an independent route past the stream test, up to the cap and its 3212
    # node signatures: the coefficients of C_g(x, y) and S_g(z, u) at x^n
    # and z^n, y and u marking 1-chords
    for n in (7, DEFAULT_FULL_CAP):
        joint = count_by_genus_onechords(n)
        shapes = count_shapes(n)
        for g in range(n // 2 + 1):
            assert [joint.count(g, n, m) for m in range(n + 1)] == (
                genfunc.diagram_bivariate_rows(g, n, n)[n]
            ), (g, n)
            assert [shapes.count(g, n, m) for m in range(n + 1)] == (
                genfunc.shape_bivariate_rows(g, n, n)[n]
            ), (g, n)
        assert joint.total(n) == double_factorial_odd(n)  # no genus past n // 2


def test_macromolecular_tables_match_partial_stream_tallies():
    n_max, sigmas = 10, (1, 2, 3)
    tallies = {s: Counter() for s in sigmas}
    for n in range(n_max + 1):
        # checked rebuilds, as in the full-matching test above
        for d in map(PartialDiagram, map(attrgetter("partners"), enumerate_partial_diagrams(n))):
            for s in sigmas:
                if d.is_macromolecular(s):
                    tallies[s][(d.genus(), n)] += 1
    tables = count_macromolecular_multi(n_max, sigmas)
    for s in sigmas:
        assert tables[s].entries == dict(tallies[s]), s


def test_streamed_diagrams_pass_validation():
    # the streams skip validation; every diagram they hand out must pass it,
    # and keep its own array after the stream has moved on.  The arrays are
    # read from a signed-byte view, so each entry must be a plain int and an
    # unmatched one exactly -1, not 255.
    for stream, cls, n_max, partial in (
        (enumerate_chord_diagrams, ChordDiagram, 5, False),
        (enumerate_partial_diagrams, PartialDiagram, 8, True),
    ):
        for n in range(n_max + 1):
            diagrams = list(stream(n))
            assert len(set(diagrams)) == len(diagrams)
            unmatched = 0
            for d in diagrams:
                assert type(d) is cls and type(d.partners) is tuple
                assert all(type(x) is int for x in d.partners)
                assert all(x == -1 or 0 <= x < len(d.partners) for x in d.partners)
                unmatched += d.partners.count(-1)
                _validate_partners(d.partners, allow_unmatched=partial)
            # each of the n vertices is left unmatched in T(n - 1) matchings
            assert unmatched == (n * TELEPHONE[n - 1] if partial and n else 0)


@pytest.mark.parametrize(
    "cls, n",
    [(ChordDiagram, n) for n in range(6)] + [(PartialDiagram, n) for n in range(9)],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_streamed_diagrams_behave_like_constructed_ones(cls, n):
    # the streams build their objects without __init__; each must still
    # equal, hash like, pickle like and refuse attributes like a checked one
    stream = enumerate_chord_diagrams if cls is ChordDiagram else enumerate_partial_diagrams
    for d in stream(n):
        built = cls(d.partners)
        assert d == built and hash(d) == hash(built)
        assert pickle.loads(pickle.dumps(d)) == d
        for name in ("partners", "_tally", "extra"):
            with pytest.raises(AttributeError):
                setattr(d, name, ())


def classification(d):
    shape = d.is_shape() if isinstance(d, ChordDiagram) else None
    return d.boundary_cycles(), d.genus(), d.one_chord_count(), shape


def test_streamed_diagrams_carry_the_classification_of_checked_rebuilds():
    # the node tables against the array walks of checked rebuilds, from a
    # cold memo and again from a warm one, over every n from the lone root
    # on; only a node's first diagram carries no classification, and a node
    # past the root holds at least 105 full or 232 partial completions
    for stream, cls, n_max, per_node in (
        (enumerate_chord_diagrams, ChordDiagram, 7, 105),
        (enumerate_partial_diagrams, PartialDiagram, 11, 232),
    ):
        for memo in (
            bruteforce._closing_cycles, bruteforce._closing_chords, bruteforce._node_tallies
        ):
            memo.cache_clear()
        for n in range(n_max + 1):
            diagrams = list(stream(n))
            carried = [d._tally for d in diagrams]
            rebuilt = [cls(d.partners) for d in diagrams]
            assert all(r._tally is None for r in rebuilt)
            assert list(map(classification, diagrams)) == list(map(classification, rebuilt))
            bare = carried.count(None)
            assert carried[0] is None and bare * per_node <= max(len(carried), per_node)
            assert [d._tally for d in stream(n)] == carried
        tallied = [d for d in stream(n_max - 1) if d._tally is not None][::97]
        assert tallied
        for d in tallied:
            copy = pickle.loads(pickle.dumps(d))
            assert copy._tally is None and classification(copy) == classification(d)
            assert d.project_shape()._tally is None


def test_oracle_tallies_are_searched_once_and_handed_out_read_only():
    tally = bruteforce._full_tally(6)
    with pytest.raises(TypeError):
        tally[(1, 0, True)] = 5
    first = count_by_genus(6)
    before = bruteforce._full_tally.cache_info()
    second = count_by_genus(6)
    after = bruteforce._full_tally.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (7, 0)  # n = 0..6
    assert second == first
    # each table gets its own entries, so a caller's edit stays its own
    second.entries[(0, 6)] += 1
    assert count_by_genus(6).entries[(0, 6)] == CATALAN[6] == first.entries[(0, 6)]


def test_macromolecular_sigma_past_every_stack_keeps_only_the_chordless():
    # one tally per n serves every sigma; a sigma above n // 2 + 1, the
    # tally's stand-in for "no stack", still admits the chordless diagram
    assert count_macromolecular(7, 40).entries == {(0, n): 1 for n in range(8)}


def witness_matchings(length, partial):
    # the recursive enumerator the explicit-stack loop replaced
    partner = [-1] * length

    def rec(i):
        while i < length and partner[i] >= 0:
            i += 1
        if i == length:
            yield tuple(partner)
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


def test_streams_follow_the_recursive_order():
    # full n = 7 is the benchmark's stream, 1287 nodes past the root
    for n in range(8):
        streamed = [d.partners for d in enumerate_chord_diagrams(n)]
        assert streamed == list(witness_matchings(2 * n, False))
    for n in range(12):
        streamed = [d.partners for d in enumerate_partial_diagrams(n)]
        assert streamed == list(witness_matchings(n, True))


def test_live_streams_share_their_tables_safely():
    # the column blocks and node tables are per process and read-only: two
    # streams advanced in turn, the first one `lead` diagrams ahead, or one
    # dropped partway into a node, change what no other stream hands out
    def record(diagrams):
        return [(d.partners, d._tally) for d in diagrams]

    full, partial = (enumerate_chord_diagrams, 6), (enumerate_partial_diagrams, 10)
    small, smaller = (enumerate_chord_diagrams, 5), (enumerate_partial_diagrams, 9)
    alone = {key: record(key[0](key[1])) for key in (full, partial, small, smaller)}
    # 105 diagrams a node at full n = 6, so a lead of 50 is half a node
    for a, b, lead in ((full, full, 50), (full, small, 0), (full, partial, 0),
                       (partial, smaller, 300)):
        first, second = a[0](a[1]), b[0](b[1])
        seen = (record(islice(first, lead)), [])
        for pair in zip_longest(first, second):
            for out, d in zip(seen, pair):
                if d is not None:
                    out.append((d.partners, d._tally))
        assert seen == (alone[a], alone[b])
    dropped = enumerate_chord_diagrams(6)
    assert record(islice(dropped, 150)) == alone[full][:150]
    del dropped
    assert record(enumerate_partial_diagrams(10)) == alone[partial]
    assert record(enumerate_chord_diagrams(6)) == alone[full]


def test_streams_are_lazy():
    # the first diagram comes after a few dozen trace events, not after a
    # walk over the 2 million partial matchings of 14 points
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1
        return count

    for stream, n, first in (
        (enumerate_partial_diagrams, DEFAULT_PARTIAL_CAP, PartialDiagram.empty(DEFAULT_PARTIAL_CAP)),
        (enumerate_chord_diagrams, DEFAULT_FULL_CAP,
         ChordDiagram.from_pairs([(2 * k + 1, 2 * k + 2) for k in range(DEFAULT_FULL_CAP)])),
    ):
        it = stream(n)
        events = 0
        previous = sys.gettrace()
        sys.settrace(count)
        try:
            d = next(it)
        finally:
            sys.settrace(previous)
        assert d == first
        assert events < 1000
