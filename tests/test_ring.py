"""Unit and property tests for the circular key space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import KEY_SPACE, KeyRange, hash_key, ring_distance
from repro.dht.route import RingTable
from repro.group.info import GroupInfo

keys = st.integers(0, KEY_SPACE - 1)


class TestHashKey:
    def test_deterministic(self):
        assert hash_key("alice") == hash_key("alice")

    def test_in_range(self):
        for name in ("a", "b", "user:123", ""):
            assert 0 <= hash_key(name) < KEY_SPACE

    def test_spread(self):
        hashes = {hash_key(f"key-{i}") for i in range(1000)}
        assert len(hashes) == 1000  # no collisions in a small sample

    def test_matches_hashlib_sha1(self):
        # The built-in SHA-1 hash_key uses must be the digest hashlib gives.
        import hashlib

        for i in range(10_000):
            name = f"user:{i}:\u00e9"
            digest = hashlib.sha1(name.encode("utf-8")).digest()
            assert hash_key(name) == int.from_bytes(digest[:8], "big") % KEY_SPACE


class TestRingDistance:
    def test_forward(self):
        assert ring_distance(10, 20) == 10

    def test_wraparound(self):
        assert ring_distance(KEY_SPACE - 5, 5) == 10

    def test_zero(self):
        assert ring_distance(7, 7) == 0


class TestKeyRange:
    def test_full_contains_everything(self):
        r = KeyRange.full()
        assert r.is_full
        assert r.contains(0) and r.contains(KEY_SPACE - 1)
        assert r.size() == KEY_SPACE

    def test_simple_contains(self):
        r = KeyRange(10, 20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)

    def test_wrapping_contains(self):
        r = KeyRange(KEY_SPACE - 10, 10)
        assert r.wraps
        assert r.contains(KEY_SPACE - 1) and r.contains(0) and r.contains(9)
        assert not r.contains(10) and not r.contains(KEY_SPACE - 11)

    def test_size_wrapping(self):
        assert KeyRange(KEY_SPACE - 10, 10).size() == 20

    def test_split_simple(self):
        left, right = KeyRange(10, 30).split_at(20)
        assert left == KeyRange(10, 20)
        assert right == KeyRange(20, 30)

    def test_split_full_range(self):
        left, right = KeyRange.full().split_at(100)
        assert left == KeyRange(0, 100)
        assert right == KeyRange(100, 0)
        assert left.size() + right.size() == KEY_SPACE

    def test_split_at_boundary_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(10, 30).split_at(10)
        with pytest.raises(ValueError):
            KeyRange(10, 30).split_at(30)

    def test_split_outside_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(10, 30).split_at(50)

    def test_merge_adjacent(self):
        assert KeyRange(10, 20).merge(KeyRange(20, 30)) == KeyRange(10, 30)

    def test_merge_back_to_full(self):
        assert KeyRange(0, 100).merge(KeyRange(100, 0)).is_full

    def test_merge_non_adjacent_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(10, 20).merge(KeyRange(25, 30))

    def test_merge_overlapping_rejected(self):
        # [10,20) + [20,15) "wraps" all the way around and overlaps.
        with pytest.raises(ValueError):
            KeyRange(10, 20).merge(KeyRange(20, 15))

    def test_intervals_simple(self):
        assert KeyRange(10, 20).intervals() == [(10, 20)]

    def test_intervals_wrapping(self):
        assert KeyRange(KEY_SPACE - 5, 5).intervals() == [(KEY_SPACE - 5, KEY_SPACE), (0, 5)]

    def test_intervals_full(self):
        assert KeyRange.full().intervals() == [(0, KEY_SPACE)]

    def test_out_of_space_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(0, KEY_SPACE)

    def test_midpoint_inside(self):
        r = KeyRange(KEY_SPACE - 10, 10)
        assert r.contains(r.midpoint())


@settings(max_examples=300, deadline=None)
@given(lo=keys, hi=keys, key=keys)
def test_contains_matches_intervals(lo, hi, key):
    r = KeyRange(lo, hi)
    in_intervals = any(a <= key < b for a, b in r.intervals())
    assert r.contains(key) == in_intervals


@settings(max_examples=300, deadline=None)
@given(lo=keys, hi=keys, split=keys)
def test_split_partitions_range(lo, hi, split):
    r = KeyRange(lo, hi)
    if split == r.lo or not r.contains(split):
        return
    left, right = r.split_at(split)
    assert left.size() + right.size() == r.size()
    for probe in (lo, hi, split, (split + 1) % KEY_SPACE, (lo + 1) % KEY_SPACE):
        assert r.contains(probe) == (left.contains(probe) or right.contains(probe))
        assert not (left.contains(probe) and right.contains(probe))


@settings(max_examples=300, deadline=None)
@given(lo=keys, hi=keys, split=keys)
def test_split_then_merge_roundtrips(lo, hi, split):
    r = KeyRange(lo, hi)
    if split == r.lo or not r.contains(split):
        return
    left, right = r.split_at(split)
    assert left.merge(right) == r


@settings(max_examples=200, deadline=None)
@given(a=keys, b=keys)
def test_ring_distance_antisymmetry(a, b):
    if a != b:
        assert ring_distance(a, b) + ring_distance(b, a) == KEY_SPACE
    else:
        assert ring_distance(a, b) == 0


# ---------------------------------------------------------------------------
# RingTable: the client's routing table answers what a cache scan answers
# ---------------------------------------------------------------------------
def scan(infos, key):
    """The reference rule: the first cached info whose arc contains the
    key, else the one whose arc starts closest behind it (first on ties)."""
    for info in infos:
        if info.range.contains(key):
            return info
    if not infos:
        return None
    return min(infos, key=lambda info: ring_distance(info.range.lo, key))


def info(i, lo, hi):
    return GroupInfo(gid=f"g{i}", range=KeyRange(lo, hi), members=("m",), leader_hint="m")


# Arc ends come mostly from a few ring points, so overlaps, gaps,
# wrapping arcs, full-ring arcs (lo == hi) and equal starts are all
# common; the rest fall anywhere.
_POINTS = (0, 1, KEY_SPACE // 4, KEY_SPACE // 2, KEY_SPACE // 2 + 1, KEY_SPACE - 1)
_ends = st.one_of(st.sampled_from(_POINTS), st.sampled_from(_POINTS), keys)


@settings(max_examples=500, deadline=None)
@given(arcs=st.lists(st.tuples(_ends, _ends), max_size=8), probes=st.lists(keys, max_size=8))
def test_ring_table_lookup_is_the_scan(arcs, probes):
    infos = [info(i, lo, hi) for i, (lo, hi) in enumerate(arcs)]
    table = RingTable(infos)
    ends = {p for arc in arcs for p in arc} | set(_POINTS)
    for key in sorted({(p + d) % KEY_SPACE for p in ends for d in (-1, 0, 1)}) + probes:
        assert table.lookup(key) is scan(infos, key), key


def test_ring_table_gap_with_equal_starts_picks_the_first_cached():
    wide, narrow = info(0, 100, 200), info(1, 100, 150)
    for infos in ((wide, narrow), (narrow, wide)):
        # 300 lies in no arc: both start 100 behind it, so the first cached wins.
        assert RingTable(infos).lookup(300) is infos[0]
        assert scan(infos, 300) is infos[0]
