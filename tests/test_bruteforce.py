from collections import Counter

import pytest

from chordgenus.bruteforce import (
    DEFAULT_FULL_CAP,
    DEFAULT_PARTIAL_CAP,
    GenusTable,
    count_by_genus,
    count_by_genus_onechords,
    count_macromolecular,
    count_macromolecular_multi,
    count_shapes,
    double_factorial_odd,
    enumerate_chord_diagrams,
    enumerate_partial_diagrams,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_double_factorial():
    assert [double_factorial_odd(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


def test_stream_is_exhaustive_and_duplicate_free():
    for n in range(5):
        seen = set(enumerate_chord_diagrams(n))
        assert len(seen) == double_factorial_odd(n)


def test_partial_stream_counts_match_telephone_numbers():
    telephone = [1, 1, 2, 4, 10, 26, 76, 232]
    for n in range(8):
        assert sum(1 for _ in enumerate_partial_diagrams(n)) == telephone[n]


def test_partition_by_first_partner():
    n = 5
    parts = [
        sum(1 for _ in enumerate_chord_diagrams(n, first_partner=k))
        for k in range(2, 2 * n + 1)
    ]
    assert sum(parts) == double_factorial_odd(n)
    assert all(p == double_factorial_odd(n - 1) for p in parts)
    with pytest.raises(ValueError):
        next(enumerate_chord_diagrams(2, first_partner=1))


def test_caps_guard_large_inputs():
    with pytest.raises(ValueError):
        count_by_genus(DEFAULT_FULL_CAP + 1)
    with pytest.raises(ValueError):
        next(enumerate_partial_diagrams(DEFAULT_PARTIAL_CAP + 1))
    # explicit cap raises the limit
    assert count_by_genus(3, cap=3).total(3) == 15


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
    assert joint.genus_marginal().entries == plain.entries
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


def test_merge_and_validation():
    a = count_by_genus(3)
    b = count_by_genus(2)
    merged = a.merge(b)
    assert merged.count(0, 2) == a.count(0, 2) + b.count(0, 2)
    with pytest.raises(ValueError):
        a.merge(count_shapes(2))
    with pytest.raises(ValueError):
        count_macromolecular(3, 0)


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
    # the search tracks cycles, 1-chords and stacking incrementally; the
    # stream classifies each diagram from scratch through ChordDiagram
    n_max = 6
    joint, shapes = Counter(), Counter()
    for n in range(n_max + 1):
        for d in enumerate_chord_diagrams(n):
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


def test_macromolecular_tables_match_partial_stream_tallies():
    n_max, sigmas = 10, (1, 2, 3)
    tallies = {s: Counter() for s in sigmas}
    for n in range(n_max + 1):
        for d in enumerate_partial_diagrams(n):
            for s in sigmas:
                if d.is_macromolecular(s):
                    tallies[s][(d.genus(), n)] += 1
    tables = count_macromolecular_multi(n_max, sigmas)
    for s in sigmas:
        assert tables[s].entries == dict(tallies[s]), s


def test_first_partner_partition_merges_to_the_full_table():
    n_max = 5
    merged = GenusTable("full", n_max, {(0, 0): 1})  # the empty diagram
    for n in range(1, n_max + 1):
        for k in range(2, 2 * n + 1):
            part = Counter(
                (d.genus(), n) for d in enumerate_chord_diagrams(n, first_partner=k)
            )
            merged = merged.merge(GenusTable("full", n, dict(part)))
    assert merged == count_by_genus(n_max)
