"""Unit and property tests for the versioned KV state machine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import KvOp, KvResult, KvStore, OP_CAS, OP_DELETE, OP_GET, OP_PUT
from repro.store.kvstore import NOT_FOUND, SESSION_WINDOW, _Cell


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


class TestSharedResults:
    """Results are immutable, so the store hands out shared ones: a miss
    is one constant, an unchanged key reads as the same object, and an
    ack is the store's one result for its version."""

    def test_repeated_gets_of_an_unchanged_key_are_one_object(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        first = s.get(1)
        assert s.get(1) is first
        assert s.apply(KvOp(OP_GET, 1)) is first
        s.apply(KvOp(OP_PUT, 2, "b"))  # another key's write leaves it alone
        assert s.get(1) is first

    def test_every_miss_is_the_same_object(self):
        s, other = KvStore(), KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        s.apply(KvOp(OP_DELETE, 1))
        misses = [
            s.get(404),
            s.get(1),
            s.apply(KvOp(OP_GET, 404)),
            s.apply(KvOp(OP_DELETE, 404)),
            s.apply(KvOp(OP_CAS, 404, "x", expected_version=1)),
            other.get(7),
        ]
        assert all(miss is NOT_FOUND for miss in misses)
        assert NOT_FOUND == KvResult(ok=False, error="not_found")

    def test_acks_of_one_version_are_one_object(self):
        s = KvStore()
        put1 = s.apply(KvOp(OP_PUT, 1, "a"))
        assert s.apply(KvOp(OP_PUT, 2, "b")) is put1
        put2 = s.apply(KvOp(OP_PUT, 1, "c"))
        assert put2 == KvResult(ok=True, version=2)
        assert s.apply(KvOp(OP_CAS, 2, "d", expected_version=1)) is put2
        assert s.apply(KvOp(OP_DELETE, 1)) is put2

    @pytest.mark.parametrize("write", ["put", "delete", "cas", "absorb"])
    def test_a_get_after_a_write_is_not_the_pre_write_result(self, write):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        before = s.get(1)
        if write == "put":
            s.apply(KvOp(OP_PUT, 1, "b"))
            expected = KvResult(ok=True, value="b", version=2)
        elif write == "delete":
            s.apply(KvOp(OP_DELETE, 1))
            expected = NOT_FOUND
        elif write == "cas":
            s.apply(KvOp(OP_CAS, 1, "b", expected_version=1))
            expected = KvResult(ok=True, value="b", version=2)
        else:
            donor = KvStore()
            for value in ("x", "y", "z"):
                donor.apply(KvOp(OP_PUT, 1, value))
            s.absorb(donor.extract([1]))
            expected = KvResult(ok=True, value="z", version=3)
        for after in (s.get(1), s.apply(KvOp(OP_GET, 1))):
            assert after is not before
            assert after == expected

    def test_two_stores_share_no_ack_table(self):
        a, b = KvStore(), KvStore()
        ack_a = a.apply(KvOp(OP_PUT, 1, "x"))
        ack_b = b.apply(KvOp(OP_PUT, 1, "x"))
        assert ack_a == ack_b and ack_a is not ack_b
        assert a._acks is not b._acks
        assert b._acks == {1: ack_b}

    def test_the_cached_read_never_travels(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"))
        before = s.get(1)
        for state in (s.snapshot(), s.extract_copy([1])):
            assert state.cells == {1: ("a", 1)}
            fresh = KvStore()
            fresh.absorb(state)
            assert fresh.get(1) == before and fresh.get(1) is not before
        assert s._cells[1].read is before
        assert s._cells[1] == _Cell(value="a", version=1)  # the cached read is not compared


def _model_result(model: dict[int, tuple[int, int]], op: str, key: int, value, expected):
    """The result a plain dict of key -> (value, version) gives ``op``,
    and the dict after it."""
    cell = model.get(key)
    if op == OP_PUT:
        version = 1 if cell is None else cell[1] + 1
        return KvResult(ok=True, version=version), {**model, key: (value, version)}
    if cell is None:
        return KvResult(ok=False, error="not_found"), model
    if op == OP_GET:
        return KvResult(ok=True, value=cell[0], version=cell[1]), model
    if op == OP_DELETE:
        return KvResult(ok=True, version=cell[1]), {k: c for k, c in model.items() if k != key}
    if expected is not None and expected != cell[1]:
        return KvResult(ok=False, value=cell[0], version=cell[1], error="conflict"), model
    return KvResult(ok=True, version=cell[1] + 1), {**model, key: (value, cell[1] + 1)}


_KEYS = st.integers(0, 5)
_STEPS = st.one_of(
    st.tuples(
        st.sampled_from([OP_PUT, OP_GET, OP_DELETE, OP_CAS]),
        _KEYS,
        st.integers(0, 99),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    st.tuples(st.just("retry"), st.integers(0, 1000)),
    st.tuples(st.just("move"), _KEYS, _KEYS),
    st.tuples(st.just("copy"), _KEYS, _KEYS),
    st.tuples(st.just("snapshot")),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_STEPS, max_size=80))
def test_shared_results_match_a_plain_dict(steps):
    """Random ops with dedup retries and range round trips give results
    equal by value to a dict of key -> (value, version)."""
    store = KvStore()
    model: dict[int, tuple[int, int]] = {}
    issued: list[tuple[KvOp, tuple[str, int], KvResult]] = []
    for step in steps:
        kind = step[0]
        if kind == "retry":
            if issued:
                op, dedup, first = issued[step[1] % len(issued)]
                assert store.apply(op, dedup=dedup) == first  # suppressed: same result
        elif kind == "move":  # out to another store and back
            keys = store.keys_in(min(step[1:]), max(step[1:]) + 1)
            other = KvStore()
            other.absorb(store.extract(keys))
            assert set(store.keys()).isdisjoint(keys)
            store.absorb(other.snapshot())
        elif kind == "copy":
            keys = store.keys_in(min(step[1:]), max(step[1:]) + 1)
            other = KvStore()
            other.absorb(store.extract_copy(keys))
            for key in keys:
                assert other.get(key) == store.get(key)
        elif kind == "snapshot":  # a new member bootstrapped from this one
            fresh = KvStore()
            fresh.absorb(store.snapshot())
            store = fresh
        else:
            op, key, value, expected = step
            kv_op = KvOp(op, key, value, expected if op == OP_CAS else None)
            dedup = ("c", len(issued) + 1)
            want, model = _model_result(model, op, key, value, kv_op.expected_version)
            got = store.apply(kv_op, dedup=dedup)
            assert got == want
            issued.append((kv_op, dedup, got))
        assert store.keys() == sorted(model)
        for key, (value, version) in model.items():
            assert store.get(key) == KvResult(ok=True, value=value, version=version)


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
