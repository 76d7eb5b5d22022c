"""Unit and property tests for the versioned KV state machine."""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.check.demo import demo_bug
from repro.group.replica import _absorb_into
from repro.store import KvOp, KvResult, KvStore, OP_CAS, OP_DELETE, OP_GET, OP_PUT
from repro.store.kvstore import NOT_FOUND, STALE, RangeState, _Cell, merge_sessions


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
        r1 = s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1, 1))
        r2 = s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1, 1))
        assert r1 == r2
        assert s.get(1).version == 1  # applied once

    def test_out_of_order_seqs_both_apply(self):
        # One client may have many ops in flight; arrival order at a
        # shard is arbitrary, so every seq at or above the watermark
        # (here 3: both are open) is kept by exact match.
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 5, 3))
        s.apply(KvOp(OP_PUT, 2, "b"), dedup=("c1", 3, 3))
        assert s.get(1).value == "a"
        assert s.get(2).value == "b"

    def test_new_seq_applies(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 1, 1))
        s.apply(KvOp(OP_PUT, 1, "b"), dedup=("c1", 2, 2))
        assert s.get(1).value == "b"

    def test_clients_are_independent(self):
        s = KvStore()
        s.apply(KvOp(OP_PUT, 1, "a"), dedup=("c1", 7, 7))
        r = s.apply(KvOp(OP_PUT, 1, "b"), dedup=("c2", 1, 1))
        assert r.ok
        assert s.get(1).value == "b"


class TestRangeMovement:
    def _filled(self):
        s = KvStore()
        for k in range(10):
            s.apply(KvOp(OP_PUT, k, f"v{k}"), dedup=("c", k + 1, k + 1))
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
        r = other.apply(KvOp(OP_PUT, 2, "replayed"), dedup=("c", 3, 3))
        assert r is STALE
        assert other.get(2).value == "v2"

    def test_absorb_merges_session_entries(self):
        a, b = KvStore(), KvStore()
        x = a.apply(KvOp(OP_PUT, 1, "x"), dedup=("c", 5, 5))
        y = b.apply(KvOp(OP_PUT, 2, "y"), dedup=("c", 9, 5))
        a.absorb(b.extract([2]))
        # Replays of either op are suppressed after the merge...
        assert a.apply(KvOp(OP_PUT, 1, "replay"), dedup=("c", 5, 5)) is x
        assert a.apply(KvOp(OP_PUT, 2, "replay"), dedup=("c", 9, 5)) is y
        assert a.get(1).value == "x"
        assert a.get(2).value == "y"
        # ...but a genuinely new seq applies.
        a.apply(KvOp(OP_PUT, 3, "z"), dedup=("c", 7, 5))
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


def _client_tokens(rng: random.Random, client: str, n_ops: int, in_flight: int) -> list:
    """The (client, seq, low) tokens of ``n_ops`` ops from a client that
    keeps up to ``in_flight`` of them open and has them answered in any
    order: ``low`` is the smallest seq still open when the op is issued."""
    tokens, open_seqs = [], []
    for seq in range(1, n_ops + 1):
        open_seqs.append(seq)
        tokens.append((client, seq, min(open_seqs)))
        if len(open_seqs) == in_flight or seq == n_ops:
            open_seqs.remove(rng.choice(open_seqs))
    return tokens


class TestSessionWindow:
    """A session keeps the client's highest watermark and exactly the
    answers at or above it, whatever order its ops arrive in; a seq
    below the watermark is refused, never applied."""

    def test_out_of_order_seqs_keep_the_largest(self):
        rng = random.Random(9)
        tokens = _client_tokens(rng, "c0", 200, 8) + _client_tokens(rng, "c1", 200, 3)
        # Out of order: each op arrives up to 12 places from its issue slot.
        tokens.sort(key=lambda t: t[1] + rng.uniform(0, 12))
        store = KvStore()
        mark = {"c0": 0, "c1": 0}
        applied = {"c0": set(), "c1": set()}
        for client, seq, low in tokens:
            before = store.ops_applied
            result = store.apply(KvOp(OP_PUT, seq % 7, seq), dedup=(client, seq, low))
            if seq < mark[client]:
                assert result is STALE and store.ops_applied == before
            else:
                assert result.ok and store.ops_applied == before + 1
                applied[client].add(seq)
                mark[client] = max(mark[client], low)
            for name, low_seen in mark.items():
                session = store._sessions.get(name, {0: 0})
                assert session[0] == low_seen
                assert sorted(s for s in session if s) == sorted(
                    s for s in applied[name] if s >= low_seen
                )
        # The old hole is closed: a replay below the watermark is
        # refused every time, not re-applied.
        low = mark["c0"] - 1
        for value in ("first", "again"):
            assert store.apply(KvOp(OP_PUT, 99, value), dedup=("c0", low, low)) is STALE
        assert store.get(99) is NOT_FOUND

    def test_range_movement_carries_the_same_sessions(self):
        a, b = KvStore(), KvStore()
        for seq in range(1, 129):
            a.apply(KvOp(OP_PUT, seq, seq), dedup=("c", 2 * seq, 2 * seq - 6))
            b.apply(KvOp(OP_PUT, 1000 + seq, seq), dedup=("c", 2 * seq + 1, 2 * seq - 13))
        assert a._sessions["c"][0] == 250 and b._sessions["c"][0] == 243
        sessions = {c: dict(seqs) for c, seqs in a._sessions.items()}
        assert a.snapshot().sessions == sessions
        assert a.extract_copy([1]).sessions == sessions
        assert list(a.snapshot().sessions["c"]) == list(sessions["c"])  # order too
        # The merge keeps the larger watermark and the answers at or above it.
        union = {**b._sessions["c"], **a._sessions["c"]}
        a.absorb(b.extract(b.keys()))
        assert a._sessions["c"] == {0: 250, **{s: r for s, r in union.items() if s >= 250}}
        assert sorted(a._sessions["c"]) == [0, *range(250, 258)]
        # The merge transaction's own union of two states obeys the same rule.
        kv = RangeState()
        merge_sessions(kv.sessions, {"c": {0: 9, 9: STALE, 12: NOT_FOUND}})
        merge_sessions(kv.sessions, {"c": {0: 11, 11: STALE}, "d": {0: 1, 1: STALE}})
        assert kv.sessions == {"c": {0: 11, 11: STALE, 12: NOT_FOUND}, "d": {0: 1, 1: STALE}}
        # A later op raises the watermark and trims everything below it.
        a.apply(KvOp(OP_PUT, 5, "new"), dedup=("c", 10_000, 255))
        assert sorted(a._sessions["c"]) == [0, 255, 256, 257, 10_000]
        assert a.apply(KvOp(OP_PUT, 5, "late"), dedup=("c", 252, 250)) is STALE


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
            dedup = ("c", len(issued) + 1, 1)  # none answered: every retry is live
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


_CLIENTS = ("a", "b", "c")
_SPACE = 8  # keys 0..7, split among shards
_PICK = st.integers(0, 1000)
_SESSION_STEPS = st.one_of(
    # A client issues an op; it reaches its shard now or is held back.
    st.tuples(
        st.just("issue"),
        st.sampled_from(_CLIENTS),
        st.sampled_from([OP_PUT, OP_GET, OP_DELETE, OP_CAS]),
        st.integers(0, _SPACE - 1),
        st.integers(0, 99),
        st.booleans(),
    ),
    st.tuples(st.just("deliver"), _PICK),  # an open op arrives: late, or retried
    st.tuples(st.just("dup"), _PICK),  # any op ever issued, again
    st.tuples(st.just("answer"), _PICK),  # the client takes an applied op's answer
    st.tuples(st.just("timeout"), _PICK),  # the client gives up on an open op
    st.tuples(st.just("split"), _PICK),
    st.tuples(st.just("merge"), _PICK),
    st.tuples(st.just("snapshot"), _PICK),
)


def _run_sessions(steps) -> None:
    """Several clients, each with ops open, against shards that split,
    merge and bootstrap from snapshots; ops arrive late, are retried
    and are duplicated.  Each (client, seq) is applied at most once and
    never below its store's watermark, an open op is never refused,
    and the shards' values are always a plain dict's."""
    shards = [[0, _SPACE, KvStore()]]  # [lo, hi, store], covering the keys in order
    issued: list[tuple[tuple[str, int, int], KvOp]] = []
    next_seq = dict.fromkeys(_CLIENTS, 0)
    open_seqs = {client: {} for client in _CLIENTS}  # seq -> its op, in issue order
    first: dict[tuple[str, int], KvResult] = {}
    model: dict[int, tuple[int, int]] = {}

    def deliver(token, op):
        nonlocal model
        client, seq, _ = token
        store = next(store for lo, hi, store in shards if lo <= op.key < hi)
        mark = store._sessions.get(client, {0: 0})[0]
        before = store.ops_applied
        got = store.apply(op, dedup=token)
        live = seq in open_seqs[client]
        if store.ops_applied > before:
            assert (client, seq) not in first, "applied twice"
            assert seq >= mark, "applied below the watermark"
            want, model = _model_result(model, op.op, op.key, op.value, op.expected_version)
            assert got == want
            first[(client, seq)] = got
        elif (client, seq) in first:
            assert got is first[(client, seq)] or (got is STALE and not live)
        else:
            assert got is STALE and not live

    for step in steps:
        kind, pick = step[0], step[-1]
        if kind == "issue":
            _, client, op, key, value, now = step
            next_seq[client] += 1
            seq = next_seq[client]
            kv_op = KvOp(op, key, value, 1 + value % 3 if op == OP_CAS else None)
            open_seqs[client][seq] = kv_op
            token = (client, seq, next(iter(open_seqs[client])))
            issued.append((token, kv_op))
            if now:
                deliver(token, kv_op)
        elif kind in ("deliver", "dup"):
            pool = [
                (token, op) for token, op in issued
                if kind == "dup" or token[1] in open_seqs[token[0]]
            ]
            if pool:
                deliver(*pool[pick % len(pool)])
        elif kind in ("answer", "timeout"):
            pool = [
                (client, seq) for client in _CLIENTS for seq in open_seqs[client]
                if kind == "timeout" or (client, seq) in first
            ]
            if pool:
                client, seq = pool[pick % len(pool)]
                del open_seqs[client][seq]
        elif kind == "split":
            wide = [i for i, (lo, hi, _) in enumerate(shards) if hi - lo > 1]
            if wide:
                i = wide[pick % len(wide)]
                lo, hi, store = shards[i]
                mid = (lo + hi) // 2
                right = KvStore()
                right.absorb(store.extract(store.keys_in(mid, hi)))
                shards[i:i + 1] = [[lo, mid, store], [mid, hi, right]]
        elif kind == "merge":
            if len(shards) > 1:
                i = pick % (len(shards) - 1)
                (lo, _, left), (_, hi, right) = shards[i], shards[i + 1]
                kv = RangeState()
                _absorb_into(kv, left.snapshot())
                _absorb_into(kv, right.snapshot())
                merged = KvStore()
                merged.absorb(kv)
                # The merge rule: per client, the larger watermark.
                marks = {}
                for part in (left, right):
                    for client, session in part._sessions.items():
                        marks[client] = max(marks.get(client, 0), session[0])
                assert {c: session[0] for c, session in merged._sessions.items()} == marks
                shards[i:i + 2] = [[lo, hi, merged]]
        else:  # a new member bootstrapped from a shard's snapshot
            shard = shards[pick % len(shards)]
            fresh = KvStore()
            fresh.absorb(shard[2].snapshot())
            shard[2] = fresh
        for lo, hi, store in shards:
            assert store.keys() == sorted(k for k in model if lo <= k < hi)
            for key in store.keys():
                value, version = model[key]
                assert store.get(key) == KvResult(ok=True, value=value, version=version)
            for client, session in store._sessions.items():
                assert all(seq >= session[0] for seq in session if seq)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_SESSION_STEPS, max_size=120))
def test_sessions_apply_each_op_at_most_once(steps):
    _run_sessions(steps)


def test_a_session_that_forgets_an_open_op_is_caught():
    """The watermark is load-bearing: with the ``session-forgets-open-op``
    demo bug (a session trimmed at each op's own seq, nothing refused
    below it) the same model finds an op applied twice."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              phases=[Phase.generate])
    @given(steps=st.lists(_SESSION_STEPS, max_size=120))
    def model(steps):
        _run_sessions(steps)

    with demo_bug("session-forgets-open-op"):
        with pytest.raises(AssertionError, match="applied twice|below the watermark"):
            model()
