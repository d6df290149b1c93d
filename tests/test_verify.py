"""Tests of the mismatch search every verify check is built on."""

import pytest

from chordgenus.verify import first_mismatch


def _never(key):
    raise AssertionError(f"route evaluated at {key!r}")


def test_no_keys_evaluates_no_route():
    assert first_mismatch((), _never, _never) is None


def test_agreement_on_every_key():
    assert first_mismatch(range(20), lambda k: k * k, lambda k: k**2) is None


def test_first_differing_key_with_both_values():
    bad = first_mismatch(range(10), lambda k: k * k, lambda k: k * k + (k in (4, 7)))
    assert bad == (4, 16, 17)


def test_tuple_keys_come_back_whole():
    keys = [(g, n) for n in range(3) for g in range(2)]
    assert first_mismatch(keys, sum, lambda k: 0 if k != (1, 1) else 5) == ((1, 0), 1, 0)


def test_stops_at_the_first_mismatch():
    keys = iter(range(10))

    def right(k):
        if k > 2:
            raise AssertionError("evaluated past the first mismatch")
        return 1 if k == 2 else 0

    assert first_mismatch(keys, lambda k: 0, right) == (2, 0, 1)
    assert next(keys) == 3  # keys past the mismatch are left unconsumed


def test_a_raising_route_propagates():
    with pytest.raises(AssertionError):
        first_mismatch([0], lambda k: 0, _never)
