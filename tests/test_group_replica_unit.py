"""Unit tests for GroupReplica's deterministic apply logic.

These bypass the network: commands are applied directly, the way the
Paxos layer would in log order, against a fake host.  This pins down the
transaction validation and state-transition rules independent of timing.
"""

import pytest

from repro.consensus.commands import Command
from repro.dht.ring import KEY_SPACE, KeyRange
from repro.group.commands import TxnAbortCmd, TxnCommitCmd
from repro.group.info import GroupGenesis, GroupInfo
from repro.group.replica import GroupReplica, GroupStatus
from repro.store.kvstore import KvOp, OP_PUT
from repro.txn.spec import (
    GroupPlan,
    MergeSpec,
    MigrateSpec,
    RepartitionSpec,
    SplitSpec,
    TxnDecision,
)


class FakeTimer:
    def cancel(self):
        pass


class FakeTransport:
    now = 0.0

    def send(self, dst, msg):
        pass

    def set_timer(self, delay, fn, *args):
        return FakeTimer()

    def rng(self):
        import random

        return random.Random(0)


class FakeHost:
    def __init__(self, node_id="n0"):
        self.node_id = node_id
        self.created = []
        self.retired = []
        self.outcomes = {}
        self.migrations = []

    @property
    def now(self):
        return 0.0

    def group_transport(self, gid):
        return FakeTransport()

    def create_group(self, genesis):
        self.created.append(genesis)

    def on_group_retired(self, gid, forwarding):
        self.retired.append((gid, forwarding))

    def record_txn_outcome(self, txn_id, decision, data):
        self.outcomes[txn_id] = decision

    def after_migrate_commit(self, spec, gid):
        self.migrations.append((spec, gid))


def make_replica(host=None, gid="g", lo=0, hi=0x80000000, members=("n0", "n1", "n2"),
                 pred=None, succ=None):
    host = host or FakeHost()
    genesis = GroupGenesis(
        gid=gid,
        range=KeyRange(lo, hi),
        members=tuple(members),
        initial_leader=members[0],
        predecessor=pred,
        successor=succ,
    )
    replica = GroupReplica(host, genesis)
    return host, replica


def ginfo(gid, lo, hi, members=("x1", "x2")):
    return GroupInfo(gid=gid, range=KeyRange(lo, hi), members=tuple(members), leader_hint=members[0])


def split_spec(replica, key, pred=None, succ=None):
    members = sorted(replica.paxos.members)
    left_range, right_range = replica.range.split_at(key)
    return SplitSpec(
        txn_id="t-split",
        coordinator_gid=replica.gid,
        coordinator_members=tuple(members),
        gid=replica.gid,
        split_key=key,
        left=GroupPlan("gL", left_range, tuple(members[:1]), members[0]),
        right=GroupPlan("gR", right_range, tuple(members[1:]), members[1]),
        pred_gid=pred,
        succ_gid=succ,
    )


def apply_cmd(replica, kind, payload):
    return replica._apply(0, Command(kind=kind, payload=payload))


class TestStorageApply:
    def test_put_applies(self):
        _h, r = make_replica()
        result = r._apply(1, Command(kind="app", payload=KvOp(OP_PUT, 5, "v")))
        assert result.ok

    def test_frozen_rejects_storage(self):
        _h, r = make_replica()
        r.status = GroupStatus.FROZEN
        result = r._apply(1, Command(kind="app", payload=KvOp(OP_PUT, 5, "v")))
        assert result == "busy"  # the client status; the store is untouched
        assert r.store.get(5).error == "not_found"

    def test_retired_redirects_storage(self):
        _h, r = make_replica()
        r.status = GroupStatus.RETIRED
        result = r._apply(1, Command(kind="app", payload=KvOp(OP_PUT, 5, "v")))
        assert result == "redirect"  # the client status; the store is untouched
        assert r.store.get(5).error == "not_found"


class TestPrepare:
    def test_prepare_locks_and_freezes_data_participant(self):
        _h, r = make_replica()
        spec = split_spec(r, 0x1000)
        status, _ = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"
        assert r.status is GroupStatus.FROZEN
        assert r.active_txn is spec

    def test_prepare_is_idempotent_for_same_txn(self):
        _h, r = make_replica()
        spec = split_spec(r, 0x1000)
        apply_cmd(r, "txn_prepare", spec)
        status, _ = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"

    def test_second_txn_refused_while_locked(self):
        _h, r = make_replica()
        apply_cmd(r, "txn_prepare", split_spec(r, 0x1000))
        other = split_spec(r, 0x2000)
        object.__setattr__(other, "txn_id", "t-other")
        status, reason = apply_cmd(r, "txn_prepare", other)
        assert status == "refused" and reason == "locked"

    def test_split_with_stale_membership_refused(self):
        _h, r = make_replica()
        spec = split_spec(r, 0x1000)
        object.__setattr__(spec, "left", GroupPlan("gL", spec.left.range, ("ghost",), "ghost"))
        status, reason = apply_cmd(r, "txn_prepare", spec)
        assert status == "refused" and reason == "membership_changed"

    def test_split_key_outside_range_refused(self):
        _h, r = make_replica(lo=0, hi=0x1000)
        spec = split_spec(r, 0x800)
        object.__setattr__(spec, "split_key", 0x2000)
        status, reason = apply_cmd(r, "txn_prepare", spec)
        assert status == "refused" and reason == "bad_split_key"

    def test_completed_txn_cannot_reprepare(self):
        _h, r = make_replica()
        r.completed_txns.add("t-split")
        status, reason = apply_cmd(r, "txn_prepare", split_spec(r, 0x1000))
        assert status == "refused" and reason == "already_completed"

    def test_merge_prepare_returns_snapshot(self):
        succ = ginfo("g2", 0x80000000, 0)
        _h, r = make_replica(succ=succ)
        r.store.apply(KvOp(OP_PUT, 5, "v"))
        spec = MergeSpec(
            txn_id="t-merge", coordinator_gid="g", coordinator_members=("n0",),
            left_gid="g", right_gid="g2",
            merged=GroupPlan("gm", KeyRange.full(), ("n0", "n1", "n2", "x1", "x2"), "n0"),
            outer_pred_info=None, outer_succ_info=None,
        )
        status, data = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"
        assert 5 in data.cells

    def test_merge_not_adjacent_refused(self):
        _h, r = make_replica(succ=ginfo("elsewhere", 0x80000000, 0))
        spec = MergeSpec(
            txn_id="t-merge", coordinator_gid="g", coordinator_members=("n0",),
            left_gid="g", right_gid="g2",
            merged=GroupPlan("gm", KeyRange.full(), ("n0",), "n0"),
            outer_pred_info=None, outer_succ_info=None,
        )
        status, reason = apply_cmd(r, "txn_prepare", spec)
        assert status == "refused" and reason == "not_adjacent"

    def test_migrate_prepare_does_not_freeze(self):
        other = ginfo("g2", 0x80000000, 0)
        _h, r = make_replica(succ=other)
        spec = MigrateSpec(
            txn_id="t-mig", coordinator_gid="g", coordinator_members=("n0",),
            node="n2", from_gid="g", to_gid="g2",
        )
        status, _ = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"
        assert r.status is GroupStatus.ACTIVE  # membership-only lock

    def test_migrate_of_nonmember_refused(self):
        _h, r = make_replica()
        spec = MigrateSpec(
            txn_id="t-mig", coordinator_gid="g", coordinator_members=("n0",),
            node="ghost", from_gid="g", to_gid="g2",
        )
        status, reason = apply_cmd(r, "txn_prepare", spec)
        assert status == "refused" and reason == "not_a_member"


class TestCommitAndAbort:
    def test_split_commit_creates_my_half_and_retires(self):
        host, r = make_replica()
        r.store.apply(KvOp(OP_PUT, 0x10, "left-key"))
        r.store.apply(KvOp(OP_PUT, 0x7000_0000, "right-key"))
        spec = split_spec(r, 0x1000)  # n0 alone in left half
        apply_cmd(r, "txn_prepare", spec)
        status, _ = apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert status == "committed"
        assert r.status is GroupStatus.RETIRED
        assert [g.gid for g in host.created] == ["gL"]
        created = host.created[0]
        assert 0x10 in created.kv.cells
        assert 0x7000_0000 not in created.kv.cells
        assert host.retired[0][0] == "g"
        assert host.outcomes["t-split"] is TxnDecision.COMMITTED

    def test_commit_without_prepare_is_ignored(self):
        host, r = make_replica()
        spec = split_spec(r, 0x1000)
        status, _ = apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert status == "ignored"
        assert r.status is GroupStatus.ACTIVE

    def test_commit_is_idempotent(self):
        host, r = make_replica()
        spec = split_spec(r, 0x1000)
        apply_cmd(r, "txn_prepare", spec)
        apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        status, _ = apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert status == "dup"

    def test_abort_releases_lock(self):
        host, r = make_replica()
        spec = split_spec(r, 0x1000)
        apply_cmd(r, "txn_prepare", spec)
        status, _ = apply_cmd(r, "txn_abort", TxnAbortCmd(spec=spec))
        assert status == "aborted"
        assert r.status is GroupStatus.ACTIVE
        assert r.active_txn is None
        assert host.outcomes["t-split"] is TxnDecision.ABORTED

    def test_abort_then_commit_is_dup(self):
        host, r = make_replica()
        spec = split_spec(r, 0x1000)
        apply_cmd(r, "txn_prepare", spec)
        apply_cmd(r, "txn_abort", TxnAbortCmd(spec=spec))
        status, _ = apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert status == "dup"
        assert r.status is GroupStatus.ACTIVE

    def test_pointer_participant_updates_successor_on_split(self):
        splitting = ginfo("gs", 0x8000_0000, 0)
        _h, r = make_replica(succ=splitting, pred=splitting)
        spec = SplitSpec(
            txn_id="t-s2", coordinator_gid="gs", coordinator_members=("x1",),
            gid="gs", split_key=0xC000_0000,
            left=GroupPlan("gL", KeyRange(0x8000_0000, 0xC000_0000), ("x1",), "x1"),
            right=GroupPlan("gR", KeyRange(0xC000_0000, 0), ("x2",), "x2"),
            pred_gid="g", succ_gid="g",
        )
        status, _ = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"
        assert r.status is GroupStatus.ACTIVE  # pointer-only participant
        apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert r.successor.gid == "gL"
        assert r.predecessor.gid == "gR"

    def test_repartition_donor_narrows_and_updates_pointers(self):
        succ = ginfo("g2", 0x8000_0000, 0)
        _h, r = make_replica(succ=succ)
        r.store.apply(KvOp(OP_PUT, 0x7000_0000, "moving"))
        r.store.apply(KvOp(OP_PUT, 0x10, "staying"))
        spec = RepartitionSpec(
            txn_id="t-rep", coordinator_gid="g", coordinator_members=("n0",),
            left_gid="g", right_gid="g2", new_boundary=0x6000_0000, donor_gid="g",
        )
        status, data = apply_cmd(r, "txn_prepare", spec)
        assert status == "prepared"
        assert 0x7000_0000 in data.cells
        apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={"moving_state": data}))
        assert r.range == KeyRange(0, 0x6000_0000)
        assert r.successor.range.lo == 0x6000_0000
        assert 0x7000_0000 not in r.store.keys()
        assert 0x10 in r.store.keys()

    def test_migrate_commit_triggers_leader_followup(self):
        host, r = make_replica()
        r.paxos.is_leader = True
        spec = MigrateSpec(
            txn_id="t-mig", coordinator_gid="g", coordinator_members=("n0",),
            node="n2", from_gid="g", to_gid="g2",
        )
        apply_cmd(r, "txn_prepare", spec)
        apply_cmd(r, "txn_commit", TxnCommitCmd(spec=spec, data={}))
        assert host.migrations == [(spec, "g")]
