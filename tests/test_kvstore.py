"""Unit and property tests for the versioned KV state machine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import KvOp, KvStore, OP_CAS, OP_DELETE, OP_GET, OP_PUT
from repro.store.kvstore import SESSION_WINDOW


class TestBasicOps:
    def test_put_then_get(self):
        s = KvStore()
        r = s.apply(KvOp(OP_PUT, 1, "a"))
        assert r.ok and r.version == 1
        g = s.apply(KvOp(OP_GET, 1))
        assert g.ok and g.value == "a" and g.version == 1

    def test_get_missing(self):
        s = KvStore()
        r = s.apply(KvOp(OP_GET, 404))
        assert not r.ok and r.error == "not_found"

    def test_put_bumps_version(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        r = s.apply(KvOp(OP_PUT, 1, "b"))
        assert r.version == 2
        assert s.get(1).value == "b"

    def test_delete(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        assert s.apply(KvOp(OP_DELETE, 1)).ok
        assert not s.apply(KvOp(OP_GET, 1)).ok
        assert not s.apply(KvOp(OP_DELETE, 1)).ok

    def test_cas_success(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        r = s.apply(KvOp(OP_CAS, 1, "b", expected_version=1))
        assert r.ok and r.version == 2

    def test_cas_conflict(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        s.apply(KvOp(OP_PUT, 1, "b"))
        r = s.apply(KvOp(OP_CAS, 1, "c", expected_version=1))
        assert not r.ok and r.error == "conflict"
        assert r.value == "b"
        assert s.get(1).value == "b"

    def test_cas_on_missing_key(self):
        s = KvStore()
        assert s.apply(KvOp(OP_CAS, 1, "x", expected_version=1)).error == "not_found"

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            KvOp("increment", 1)

    def test_readonly_get_does_not_count_as_op(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        before = s.ops_applied
        s.get(1)
        assert s.ops_applied == before


class TestDedup:
    def test_retry_returns_cached_result(self):
        s = KvStore()
        r1 = s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1))
        r2 = s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1))
        assert r1 == r2
        assert s.get(1).version == 1  # applied once

    def test_out_of_order_seqs_both_apply(self):
        # One client may have many ops in flight; arrival order at a
        # shard is arbitrary, so dedup is exact-match, not a watermark.
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 5))
        s.apply(KvOp(OP_PUT, 2, "b"), dedup=("c1", 3))
        assert s.get(1).value == "a"
        assert s.get(2).value == "b"

    def test_new_seq_applies(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1))
        s.apply(KvOp(OP_PUT, 1, "b"), dedup=("c1", 2))
        assert s.get(1).value == "b"

    def test_clients_are_independent(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 7))
        r = s.apply(KvOp(OP_PUT, 1, "b"), dedup=("c2", 1))
        assert r.ok
        assert s.get(1).value == "b"


class TestRangeMovement:
    def _filled(self):
        s = KvStore()
        for k in range(10):
            s.apply(KvOp(OP_PUT, k, f"v{k}"), dedup=("c", k + 1))
        return s

    def test_keys_in(self):
        s = self._filled()
        assert s.keys_in(3, 7) == [3, 4, 5, 6]

    def test_extract_removes_keys(self):
        s = self._filled()
        state = s.extract(s.keys_in(0, 5))
        assert sorted(state.cells) == [0, 1, 2, 3, 4]
        assert s.keys() == [5, 6, 7, 8, 9]

    def test_extract_absorb_roundtrip(self):
        s = self._filled()
        state = s.extract(s.keys_in(0, 5))
        other = KvStore()
        other.absorb(state)
        assert other.keys() == [0, 1, 2, 3, 4]
        assert other.get(3).value == "v3"
        assert other.get(3).version == 1

    def test_versions_preserved_across_move(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        s.apply(KvOp(OP_PUT, 1, "b"))
        other = KvStore()
        other.absorb(s.extract([1]))
        assert other.get(1).version == 2

    def test_sessions_travel_with_range(self):
        s = self._filled()
        other = KvStore()
        other.absorb(s.extract(s.keys_in(0, 5)))
        # A replayed old op against the new owner is still suppressed.
        r = other.apply(KvOp(OP_PUT, 2, "replayed"), dedup=("c", 3))
        assert other.get(2).value == "v2"

    def test_absorb_merges_session_entries(self):
        a, b = KvStore(), KvStore()
        a.apply(KvOp(OP_PUT, 1, "x"), dedup=("c", 5))
        b.apply(KvOp(OP_PUT, 2, "y"), dedup=("c", 9))
        a.absorb(b.extract([2]))
        # Replays of either op are suppressed after the merge...
        a.apply(KvOp(OP_PUT, 1, "replay"), dedup=("c", 5))
        a.apply(KvOp(OP_PUT, 2, "replay"), dedup=("c", 9))
        assert a.get(1).value == "x"
        assert a.get(2).value == "y"
        # ...but a genuinely new seq applies.
        a.apply(KvOp(OP_PUT, 3, "z"), dedup=("c", 7))
        assert a.get(3).value == "z"

    def test_extract_copy_is_nondestructive(self):
        s = self._filled()
        state = s.extract_copy([1, 2])
        assert s.keys() == list(range(10))
        assert sorted(state.cells) == [1, 2]

    def test_snapshot_full(self):
        s = self._filled()
        snap = s.snapshot()
        fresh = KvStore()
        fresh.absorb(snap)
        assert fresh.keys() == s.keys()


class TestSessionWindow:
    """The per-client window keeps the largest sequence numbers, whatever
    order they arrive in.  The oracle is the sort the store used to run
    on every op; it lives here only."""

    def test_out_of_order_seqs_keep_the_largest(self):
        rng = random.Random(9)
        pairs = [(f"c{i % 2}", seq) for i, seq in enumerate(rng.sample(range(1, 2001), 400))]
        store = KvStore()
        expected = {"c0": [], "c1": []}
        for client, seq in pairs:
            store.apply(KvOp(OP_PUT, seq % 7, seq), dedup=(client, seq))
            expected[client] = sorted(expected[client] + [seq])[-SESSION_WINDOW:]
            for name, seqs in expected.items():
                assert sorted(store._sessions.get(name, ())) == seqs
        assert len(store._sessions["c0"]) == SESSION_WINDOW
        # A seq below the whole window is applied, recorded and dropped
        # at once: its replay is no longer suppressed, as before.
        low = min(expected["c0"]) - 1
        store.apply(KvOp(OP_PUT, 99, "first"), dedup=("c0", low))
        assert sorted(store._sessions["c0"]) == expected["c0"]
        store.apply(KvOp(OP_PUT, 99, "again"), dedup=("c0", low))
        assert store.get(99).value == "again"

    def test_range_movement_carries_the_same_sessions(self):
        a, b = KvStore(), KvStore()
        for seq in range(1, SESSION_WINDOW + 1):
            a.apply(KvOp(OP_PUT, seq, seq), dedup=("c", 2 * seq))
            b.apply(KvOp(OP_PUT, 1000 + seq, seq), dedup=("c", 2 * seq + 1))
        sessions = {c: dict(seqs) for c, seqs in a._sessions.items()}
        assert a.snapshot().sessions == sessions
        assert a.extract_copy([1]).sessions == sessions
        assert list(a.snapshot().sessions["c"]) == list(sessions["c"])  # order too
        a.absorb(b.extract(b.keys()))
        merged = sorted(a._sessions["c"])
        assert len(merged) == 2 * SESSION_WINDOW  # absorb never trims
        # The next apply trims the whole excess, smallest first.
        a.apply(KvOp(OP_PUT, 5, "new"), dedup=("c", 10_000))
        assert sorted(a._sessions["c"]) == (merged + [10_000])[-SESSION_WINDOW:]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from([OP_PUT, OP_DELETE, OP_GET]),
            st.integers(0, 9),
            st.integers(0, 99),
        ),
        max_size=60,
    )
)
def test_store_matches_model_dict(ops):
    """The store behaves like a plain dict plus version counters."""
    store = KvStore()
    model: dict[int, int] = {}
    versions: dict[int, int] = {}
    for op, key, value in ops:
        result = store.apply(KvOp(op, key, value))
        if op == OP_PUT:
            model[key] = value
            versions[key] = versions.get(key, 0) + 1
            assert result.ok and result.version == versions[key]
        elif op == OP_DELETE:
            if key in model:
                del model[key]
                versions[key] = 0
                assert result.ok
            else:
                assert not result.ok
        else:
            if key in model:
                assert result.ok and result.value == model[key]
            else:
                assert not result.ok
    assert store.keys() == sorted(model)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.sets(st.integers(0, 50), min_size=1, max_size=30),
    split=st.integers(0, 50),
)
def test_extract_absorb_partition_is_lossless(keys, split):
    """Splitting a store at any point and rejoining loses nothing."""
    store = KvStore()
    for k in keys:
        store.apply(KvOp(OP_PUT, k, k * 2))
    left = KvStore()
    left.absorb(store.extract(store.keys_in(0, split)))
    # store retains [split, inf); left has [0, split)
    assert set(left.keys()) | set(store.keys()) == keys
    assert set(left.keys()) & set(store.keys()) == set()
    store.absorb(left.snapshot())
    assert set(store.keys()) == keys
    for k in keys:
        assert store.get(k).value == k * 2
