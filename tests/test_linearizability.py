"""Tests for the linearizability checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_history, check_key_history, wing_gong_check
from repro.analysis.linearizability import NOT_FOUND, Op
from repro.dht.client import OpRecord
from repro.store.kvstore import KvResult

INF = float("inf")


def rec(op, key, value, inv, resp, ok=True, rvalue=None, error=None):
    r = OpRecord(op=op, key=key, value=value, invoke_time=inv)
    r.response_time = resp
    r.result = KvResult(ok=ok, value=rvalue if op == "get" else None, error=error)
    return r


def put(key, value, inv, resp, ok=True):
    return rec("put", key, value, inv, resp, ok=ok)


def get(key, rvalue, inv, resp):
    if rvalue is NOT_FOUND:
        return rec("get", key, None, inv, resp, ok=False, error="not_found")
    return rec("get", key, None, inv, resp, ok=True, rvalue=rvalue)


def pending_put(key, value, inv):
    r = OpRecord(op="put", key=key, value=value, invoke_time=inv)
    r.response_time = inv + 100
    r.result = KvResult(ok=False, error="timeout")
    return r


class TestFastChecker:
    def test_clean_history_passes(self):
        history = [put(1, "a", 0, 1), get(1, "a", 2, 3), put(1, "b", 4, 5), get(1, "b", 6, 7)]
        assert check_key_history(1, history).ok

    def test_stale_read_detected(self):
        history = [put(1, "a", 0, 1), put(1, "b", 2, 3), get(1, "a", 4, 5)]
        result = check_key_history(1, history)
        assert [v.kind for v in result.violations] == ["stale_read"]

    def test_lost_write_detected(self):
        history = [put(1, "a", 0, 1), get(1, NOT_FOUND, 2, 3)]
        result = check_key_history(1, history)
        assert [v.kind for v in result.violations] == ["lost_write"]

    def test_phantom_read_detected(self):
        history = [put(1, "a", 0, 1), get(1, "zzz", 2, 3)]
        result = check_key_history(1, history)
        assert [v.kind for v in result.violations] == ["phantom_read"]

    def test_future_read_detected(self):
        history = [get(1, "a", 0, 1), put(1, "a", 2, 3)]
        result = check_key_history(1, history)
        assert [v.kind for v in result.violations] == ["future_read"]

    def test_concurrent_writes_allow_either_value(self):
        # Two overlapping writes: a later read may see either.
        history = [
            put(1, "a", 0, 10),
            put(1, "b", 0, 10),
            get(1, "a", 11, 12),
        ]
        assert check_key_history(1, history).ok

    def test_read_overlapping_write_may_see_it(self):
        history = [put(1, "a", 0, 1), put(1, "b", 2, 10), get(1, "b", 3, 4)]
        assert check_key_history(1, history).ok

    def test_pending_write_value_is_legal(self):
        history = [pending_put(1, "a", 0), get(1, "a", 50, 51)]
        assert check_key_history(1, history).ok

    def test_pending_write_not_required(self):
        history = [pending_put(1, "a", 0), get(1, NOT_FOUND, 50, 51)]
        assert check_key_history(1, history).ok

    def test_check_history_groups_keys(self):
        history = [
            put(1, "a", 0, 1),
            put(2, "x", 0, 1),
            get(1, "a", 2, 3),
            get(2, NOT_FOUND, 2, 3),  # violation on key 2 only
        ]
        result = check_history(history)
        assert len(result.violations) == 1
        assert result.violations[0].key == 2
        assert result.total_reads == 2
        assert result.total_writes == 2

    def test_timed_out_read_ignored(self):
        r = OpRecord(op="get", key=1, value=None, invoke_time=0)
        r.response_time = 8
        r.result = KvResult(ok=False, error="timeout")
        result = check_key_history(1, [put(1, "a", 1, 2), r])
        assert result.ok
        assert result.total_reads == 0


class TestClientContract:
    """A refusal taken for an answer is flagged, whatever the op."""

    def test_busy_put_is_one_contract_violation(self):
        refused = rec("put", 1, "a", 0, 1, ok=False, error="busy")
        result = check_key_history(1, [refused, get(1, "a", 2, 3)])
        assert [v.kind for v in result.violations] == ["client_contract"]
        assert result.total_reads == 1  # its value stays legal to read

    def test_busy_get_is_one_contract_violation_not_a_miss(self):
        refused = rec("get", 1, None, 2, 3, ok=False, error="busy")
        result = check_key_history(1, [put(1, "a", 0, 1), refused])
        assert [v.kind for v in result.violations] == ["client_contract"]
        assert result.total_reads == 0

    def test_not_found_on_unwritten_key_is_clean(self):
        result = check_key_history(1, [get(1, NOT_FOUND, 0, 1)])
        assert result.ok
        assert result.total_reads == 1

    def test_cas_conflict_is_an_answer(self):
        r = rec("cas", 1, "b", 0, 1, ok=False, error="conflict")
        assert check_key_history(1, [r]).ok


class TestWingGong:
    def test_trivial_sequential(self):
        ops = [Op("write", "a", 0, 1), Op("read", "a", 2, 3)]
        assert wing_gong_check(ops)

    def test_stale_read_rejected(self):
        ops = [Op("write", "a", 0, 1), Op("write", "b", 2, 3), Op("read", "a", 4, 5)]
        assert not wing_gong_check(ops)

    def test_concurrent_reads_split_decision(self):
        # w(a) then concurrent w(b) and two reads; one sees a, one sees b —
        # legal iff read(a) linearizes before w(b) and read(b) after.
        ops = [
            Op("write", "a", 0, 1),
            Op("write", "b", 2, 10),
            Op("read", "a", 3, 4),
            Op("read", "b", 5, 6),
        ]
        assert wing_gong_check(ops)

    def test_read_inversion_rejected(self):
        # read(b) completes before read(a) starts: b then a is an inversion.
        ops = [
            Op("write", "a", 0, 1),
            Op("write", "b", 2, 10),
            Op("read", "b", 3, 4),
            Op("read", "a", 5, 6),
        ]
        assert not wing_gong_check(ops)

    def test_pending_write_optional(self):
        ops = [Op("write", "a", 0, INF), Op("read", NOT_FOUND, 1, 2)]
        assert wing_gong_check(ops)
        ops2 = [Op("write", "a", 0, INF), Op("read", "a", 1, 2)]
        assert wing_gong_check(ops2)

    def test_initial_state_reads(self):
        assert wing_gong_check([Op("read", NOT_FOUND, 0, 1)])
        assert not wing_gong_check([Op("read", "ghost", 0, 1)])

    def test_size_guard(self):
        ops = [Op("write", i, i, i + 0.5) for i in range(25)]
        with pytest.raises(ValueError):
            wing_gong_check(ops)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["read", "write"]),
            st.integers(0, 3),  # value index
            st.floats(0, 50),  # invoke
            st.floats(0.1, 10),  # duration
        ),
        min_size=1,
        max_size=7,
    )
)
def test_fast_checker_never_flags_what_wing_gong_accepts(data):
    """Soundness: fast-checker violations imply Wing-Gong rejection.

    Build a random history, run both checkers; whenever the fast checker
    reports a violation, the exhaustive checker must also reject.
    (The converse need not hold — the fast checker is incomplete.)
    """
    # Make write values unique by suffixing an index; reads pick among them.
    ops = []
    records = []
    write_values = []
    for i, (kind, vidx, inv, dur) in enumerate(data):
        resp = inv + dur
        if kind == "write":
            value = f"v{vidx}_{i}"
            write_values.append(value)
            ops.append(Op("write", value, inv, resp))
            records.append(put(9, value, inv, resp))
        else:
            value = f"v{vidx}_{vidx}" if not write_values else write_values[vidx % len(write_values)]
            ops.append(Op("read", value, inv, resp))
            records.append(get(9, value, inv, resp))
    fast = check_key_history(9, records)
    if not fast.ok:
        assert not wing_gong_check(ops)
