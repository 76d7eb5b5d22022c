"""The durable-storage model: WAL semantics, crash recovery, amnesia.

Three layers under test: the disk model itself (fsync boundaries,
power-failure truncation, checksum policy, snapshot compaction), real
recovery through a live Paxos cluster (WAL replay, catch-up, leader
failover, amnesiac learner rejoin), and the zero-perturbation guarantee
that deployments without the storage model behave byte-identically to
builds that never had it (same pattern as tests/test_obs.py).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.consensus.commands import Command
from repro.consensus.harness import PaxosHost, build_cluster, current_leader
from repro.consensus.replica import PaxosConfig
from repro.harness.builders import (
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.storage.disk import (
    BALLOT_ZERO,
    NodeDisk,
    REC_ACCEPT,
    REC_CHOSEN,
    REC_PROMISE,
    StorageConfig,
    WalRecord,
)
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload


# ---------------------------------------------------------------------------
# Disk model unit tests
# ---------------------------------------------------------------------------
class TestWal:
    def _region(self):
        return NodeDisk("n0", StorageConfig()).storage_for("g")

    def test_append_is_volatile_until_fsync(self):
        st = self._region()
        assert st.append_promise((1, "n0"))
        assert st.append_accept(0, (1, "n0"), "cmd")
        assert st.synced_seq == 0
        st.power_failure()
        assert st.records == []  # nothing was fsynced

    def test_power_failure_keeps_synced_prefix(self):
        st = self._region()
        st.append_accept(0, (1, "n0"), "a")
        st.append_accept(1, (1, "n0"), "b")
        st.mark_synced(st.current_seq())
        st.append_accept(2, (1, "n0"), "c")  # un-fsynced suffix
        st.power_failure()
        assert [r.slot for r in st.records] == [0, 1]
        _snap, replay = st.recovery_image()
        assert [r.slot for r in replay] == [0, 1]

    def test_fsync_folds_promises_into_durable_promise(self):
        st = self._region()
        st.append_promise((3, "n1"))
        st.append_promise((5, "n2"))
        assert st.durable_promise == BALLOT_ZERO
        st.mark_synced(st.current_seq())
        assert st.durable_promise == (5, "n2")

    def test_io_error_blocks_appends_and_snapshots(self):
        st = self._region()
        st.disk.io_error = True
        assert not st.append_promise((1, "n0"))
        st.save_snapshot({"x": 1}, 10, ("n0",))
        assert st.snapshot is None
        st.disk.clear_faults()
        assert st.append_promise((1, "n0"))

    def test_snapshot_compacts_wal_but_keeps_unsynced_suffix(self):
        st = self._region()
        for slot in range(4):
            st.append_accept(slot, (1, "n0"), f"v{slot}")
        st.append_promise((2, "n1"))
        st.mark_synced(st.current_seq())
        st.append_accept(4, (2, "n1"), "v4")  # still volatile
        st.save_snapshot({"state": True}, last_included=2, members=("n0",))
        kept = [(r.kind, r.slot) for r in st.records]
        # promise records folded at fsync, slots <= 2 covered by snapshot,
        # slot 3 (durable, beyond snapshot) and slot 4 (volatile) survive.
        assert kept == [(REC_ACCEPT, 3), (REC_ACCEPT, 4)]
        st.power_failure()
        assert [(r.kind, r.slot) for r in st.records] == [(REC_ACCEPT, 3)]

    def test_corrupt_tail_forces_amnesia_at_recovery(self):
        st = self._region()
        for slot in range(3):
            st.append_accept(slot, (1, "n0"), f"v{slot}")
        st.mark_synced(st.current_seq())
        st.corrupt_tail(1)
        snap, replay = st.recovery_image()
        assert snap is None and replay == []
        assert st.amnesiac
        assert st.last_recovery["mode"] == "amnesia"

    def test_wipe_clears_ledger_and_sets_amnesia(self):
        st = self._region()
        st.append_promise((1, "n0"))
        st.mark_synced(st.current_seq())
        st.note_acked_promise((1, "n0"))
        st.note_acked_accept(0, (1, "n0"), "app:None")
        st.wipe()
        assert st.amnesiac
        assert st.acked_promise == BALLOT_ZERO
        assert st.acked_accepts == {}
        assert st.durable_promise == BALLOT_ZERO

    def test_recovery_counters(self):
        st = self._region()
        for slot in range(5):
            st.append_accept(slot, (1, "n0"), f"v{slot}")
        st.mark_synced(st.current_seq())
        st.recovery_image()
        st.recovery_image()
        assert st.recoveries == 2
        assert st.replayed_total == 10
        assert st.max_replayed == 5


# ---------------------------------------------------------------------------
# Model-based: the indexed region against a full-scan reference
# ---------------------------------------------------------------------------
class _MetricLog:
    """Tracer stand-in: every counter bump and observation, in order."""

    def __init__(self):
        self.metrics = self
        self.log = []

    def inc(self, name, n=1):
        self.log.append((name, n))

    def observe(self, name, value):
        self.log.append((name, value))


class _FullScanRegion:
    """Reference model: every operation scans the whole log for the
    records it concerns, keyed on ``seq <= synced_seq`` alone."""

    def __init__(self, metrics):
        self.records, self.next_seq, self.synced_seq = [], 1, 0
        self.durable_promise, self.corrupt_from = BALLOT_ZERO, None
        self.snapshot, self.amnesiac, self.last_recovery = None, False, {}
        self.metrics = metrics

    def _append(self, kind, slot, ballot, value):
        self.records.append(WalRecord(self.next_seq, kind, slot, ballot, value))
        self.next_seq += 1
        self.metrics.inc("wal.appends")
        return True

    def append_promise(self, ballot):
        return self._append(REC_PROMISE, -1, ballot, None)

    def append_accept(self, slot, ballot, command):
        return self._append(REC_ACCEPT, slot, ballot, command)

    def append_chosen(self, slot, command):
        self._append(REC_CHOSEN, slot, None, command)

    def mark_synced(self, seq):
        covered = [r for r in self.records if self.synced_seq < r.seq <= seq]
        promises = [r.ballot for r in covered if r.kind == REC_PROMISE]
        self.durable_promise = max([self.durable_promise, *promises])
        self.synced_seq = max(self.synced_seq, seq)
        self.metrics.inc("wal.fsyncs")
        self.metrics.observe("fsync.batch_size", len(covered))

    def save_snapshot(self, state, last_included, members):
        self.snapshot = (state, last_included, members)
        self.records = [
            r
            for r in self.records
            if r.seq > self.synced_seq or (r.kind != REC_PROMISE and r.slot > last_included)
        ]

    def durable(self):
        return [r for r in self.records if r.seq <= self.synced_seq]

    def power_failure(self):
        self.records = self.durable()

    def corrupt_tail(self, count):
        durable = self.durable()
        if durable and count > 0:
            start = durable[max(0, len(durable) - count)].seq
            self.corrupt_from = min(start, self.corrupt_from or start)

    def wipe(self):
        self.records, self.synced_seq = [], self.next_seq - 1
        self.snapshot, self.durable_promise = None, BALLOT_ZERO
        self.corrupt_from, self.amnesiac = None, True

    def recovery_image(self):
        if self.corrupt_from is not None:
            self.wipe()
        if self.amnesiac:
            self.last_recovery = {"mode": "amnesia", "replayed": 0, "snapshot": False}
            return None, []
        replay, snap = self.durable(), self.snapshot
        self.last_recovery = {"mode": "replay", "replayed": len(replay), "snapshot": snap is not None}
        return snap, replay


_ballots = hyp.tuples(hyp.integers(1, 6), hyp.sampled_from(["n0", "n1", "n2"]))
_slots = hyp.integers(0, 12)
_commands = hyp.sampled_from(["a", "b", "c"])
# (method, *args), applied to the region and to the reference alike.
_wal_ops = hyp.lists(
    hyp.one_of(
        hyp.tuples(hyp.just("append_promise"), _ballots),
        hyp.tuples(hyp.just("append_accept"), _slots, _ballots, _commands),
        hyp.tuples(hyp.just("append_chosen"), _slots, _commands),
        # The one relative argument: a barrier at current_seq minus
        # 0..5, so mostly the tail and sometimes a stale or out-of-order
        # seq (a disk_slow fault clearing between two per-ack timers
        # completes the later barrier first).
        hyp.tuples(hyp.just("mark_synced"), hyp.integers(0, 5)),
        hyp.tuples(hyp.just("save_snapshot"), _commands, _slots, hyp.just(("n0", "n1"))),
        hyp.tuples(hyp.just("power_failure")),
        hyp.tuples(hyp.just("corrupt_tail"), hyp.integers(0, 4)),
        hyp.tuples(hyp.just("wipe")),
        hyp.tuples(hyp.just("recovery_image")),
    ),
    max_size=60,
)


class TestIndexedWalMatchesFullScan:
    @settings(max_examples=300, deadline=None)
    @given(ops=_wal_ops)
    def test_every_step_matches_reference(self, ops):
        real_metrics, ref_metrics = _MetricLog(), _MetricLog()
        real = NodeDisk("n0", StorageConfig(), tracer=real_metrics).storage_for("g")
        ref = _FullScanRegion(ref_metrics)
        for op, *args in ops:
            if op == "mark_synced":
                args = [max(0, real.current_seq() - args[0])]
            assert getattr(real, op)(*args) == getattr(ref, op)(*args)
            assert real.records == ref.records
            assert real.synced_seq == ref.synced_seq
            assert real.durable_promise == ref.durable_promise
            assert real.corrupt_from == ref.corrupt_from
            assert real.snapshot == ref.snapshot
            assert real.amnesiac == ref.amnesiac
            assert real.last_recovery == ref.last_recovery
        assert real_metrics.log == ref_metrics.log
        assert real.fsyncs == ref_metrics.log.count(("wal.fsyncs", 1))


# ---------------------------------------------------------------------------
# Live-cluster recovery
# ---------------------------------------------------------------------------
def _cluster(seed=7, n=3, config=None):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim)
    hosts = build_cluster(sim, net, n, config=config, storage=StorageConfig())
    sim.run_for(2.0)
    return sim, net, hosts


def _propose_n(sim, leader: PaxosHost, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        leader.propose(Command(kind="app", payload=f"v{i}", dedup=("c", i)))
        sim.run_for(0.05)


def _applied_counts(hosts):
    return {h.node_id: len(h.applied) for h in hosts}


def _no_reneges(hosts):
    return not any(h.replica.storage.reneged for h in hosts)


class TestClusterRecovery:
    def test_follower_restart_replays_wal_then_catches_up(self):
        sim, _net, hosts = _cluster()
        leader = current_leader(hosts)
        _propose_n(sim, leader, 20)
        follower = next(h for h in hosts if h is not leader)
        follower.crash()
        _propose_n(sim, leader, 10, start=20)
        follower.restart()
        sim.run_for(3.0)
        assert follower.replica.storage.recoveries == 1
        assert follower.replica.storage.last_recovery["mode"] == "replay"
        assert follower.replica.storage.last_recovery["replayed"] > 0
        counts = _applied_counts(hosts)
        assert len(set(counts.values())) == 1, counts
        assert _no_reneges(hosts)

    def test_leader_restart_steps_down_and_cluster_commits(self):
        sim, _net, hosts = _cluster()
        leader = current_leader(hosts)
        _propose_n(sim, leader, 10)
        leader.crash()
        sim.run_for(3.0)
        new_leader = current_leader(hosts)
        assert new_leader is not None and new_leader is not leader
        leader.restart()
        sim.run_for(3.0)
        assert not leader.replica.is_leader  # recovered as a follower
        future = new_leader.propose(Command(kind="app", payload="post", dedup=("c", 99)))
        sim.run_for(2.0)
        assert future.done and future.exception is None
        counts = _applied_counts(hosts)
        assert len(set(counts.values())) == 1, counts
        assert _no_reneges(hosts)

    def test_snapshot_recovery_after_compaction(self):
        config = PaxosConfig(compact_threshold=20)
        sim, _net, hosts = _cluster(config=config)
        leader = current_leader(hosts)
        _propose_n(sim, leader, 50)
        follower = next(h for h in hosts if h is not leader)
        follower.crash()
        follower.restart()
        sim.run_for(3.0)
        last = follower.replica.storage.last_recovery
        assert last["mode"] == "replay" and last["snapshot"]
        # replay was bounded by compaction, not the full 50-command history
        assert last["replayed"] < 50
        counts = _applied_counts(hosts)
        assert len(set(counts.values())) == 1, counts
        assert _no_reneges(hosts)

    def test_amnesiac_rejoins_as_learner_then_votes_again(self):
        sim, _net, hosts = _cluster()
        leader = current_leader(hosts)
        _propose_n(sim, leader, 15)
        victim = next(h for h in hosts if h is not leader)
        victim.crash()
        victim.disk.wipe()
        victim.restart()
        assert victim.replica.amnesiac
        sim.run_for(5.0)
        assert not victim.replica.amnesiac  # caught up, voting rights back
        counts = _applied_counts(hosts)
        assert len(set(counts.values())) == 1, counts
        assert _no_reneges(hosts)

    def test_amnesiac_never_votes_in_elections(self):
        # 3 nodes: crash the leader, wipe a follower.  A new leader needs
        # 2 of 3 promises; the amnesiac must not supply one, so no leader
        # can emerge until the crashed node (with its intact disk) returns.
        sim, _net, hosts = _cluster()
        leader = current_leader(hosts)
        _propose_n(sim, leader, 10)
        victim = next(h for h in hosts if h is not leader)
        victim.crash()
        victim.disk.wipe()
        victim.restart()
        leader.crash()
        sim.run_for(5.0)
        assert current_leader(hosts) is None
        assert victim.replica.amnesiac  # nobody to catch up from
        leader.restart()
        sim.run_for(5.0)
        assert current_leader(hosts) is not None
        sim.run_for(3.0)
        assert not victim.replica.amnesiac
        assert _no_reneges(hosts)

    def test_amnesia_marker_survives_another_crash(self):
        sim, net, hosts = _cluster()
        leader = current_leader(hosts)
        _propose_n(sim, leader, 10)
        victim = next(h for h in hosts if h is not leader)
        peers = [h.node_id for h in hosts if h is not victim]
        victim.crash()
        victim.disk.wipe()
        net.isolate_inbound(victim.node_id, peers)  # block catch-up
        victim.restart()
        assert victim.replica.amnesiac
        sim.run_for(2.0)
        victim.crash()
        victim.restart()
        assert victim.replica.amnesiac  # durable marker: still a learner
        for peer in peers:
            net.unblock_one_way(peer, victim.node_id)
        sim.run_for(5.0)
        assert not victim.replica.amnesiac
        assert _no_reneges(hosts)

    def test_per_peer_catchup_throttle(self):
        # The throttle map is per-peer: asking one peer must not block an
        # immediate ask to a different peer.
        sim, _net, hosts = _cluster()
        replica = hosts[0].replica
        replica._request_catchup("n1")
        t1 = replica._last_catchup_request.get("n1")
        replica._request_catchup("n2")
        assert replica._last_catchup_request.get("n2") == t1
        # same peer again inside the throttle window is a no-op
        before = dict(replica._last_catchup_request)
        replica._request_catchup("n1")
        assert replica._last_catchup_request == before


# ---------------------------------------------------------------------------
# Scatter-level recovery
# ---------------------------------------------------------------------------
def _own_vote_cluster(retry_interval=0.3):
    """Three replicas on constant 5 ms links, n0 leading, n2 cut off from
    it: a slot needs the leader's own durable vote plus n1's ack."""
    from repro.sim.latency import ConstantLatency

    sim = Simulator(seed=7)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    config = PaxosConfig(
        heartbeat_interval=0.1, election_timeout=0.5, lease_duration=0.35,
        retry_interval=retry_interval, retry_cap=retry_interval,
    )
    hosts = build_cluster(sim, net, 3, config=config, storage=StorageConfig())
    sim.run_for(1.0)
    assert current_leader(hosts) is hosts[0]
    net.block("n0", "n2")
    return sim, net, hosts


def _accept_records(host, slot):
    return [
        r for r in host.replica.storage.records if r.kind == REC_ACCEPT and r.slot == slot
    ]


class TestLeaderOwnVote:
    """The leader's vote is a local WAL append, counted from its fsync."""

    def test_power_failure_before_fsync_never_counted_the_leader(self):
        sim, _net, hosts = _own_vote_cluster()
        leader = hosts[0]
        storage = leader.replica.storage
        leader.propose(Command(kind="app", payload="x", dedup=("c", 1)))
        slot = max(leader.replica._pending)
        sim.run_for(0.001)  # appended, fsync (2 ms) still pending
        assert _accept_records(leader, slot) and storage.synced_seq < storage.current_seq()
        assert leader.replica._pending[slot].acks == set()
        assert slot not in storage.acked_accepts
        leader.crash()
        assert not _accept_records(leader, slot)  # the suffix died with the power
        sim.run_for(0.1)  # the fsync completion never fires
        assert slot not in storage.acked_accepts
        leader.restart()
        sim.run_for(3.0)
        assert _no_reneges(hosts)

    def test_one_follower_ack_alone_does_not_choose(self):
        sim, _net, hosts = _own_vote_cluster()
        leader = hosts[0]
        leader.disk.fsync_factor = 50.0  # own fsync takes 100 ms
        future = leader.propose(Command(kind="app", payload="x", dedup=("c", 1)))
        slot = max(leader.replica._pending)
        sim.run_for(0.05)  # n1's ack is in (12 ms); the leader's record is not durable
        assert leader.replica._pending[slot].acks == {"n1"}
        assert not future.done
        sim.run_for(0.1)
        assert future.done and future.exception is None
        assert leader.replica.storage.acked_accepts[slot][0] == leader.replica.ballot

    def test_append_io_error_leaves_the_slot_to_the_retry_tick(self):
        sim, _net, hosts = _own_vote_cluster()
        leader = hosts[0]
        leader.disk.io_error = True
        future = leader.propose(Command(kind="app", payload="x", dedup=("c", 1)))
        slot = max(leader.replica._pending)
        sim.run_for(0.05)
        assert not _accept_records(leader, slot)
        assert leader.replica._pending[slot].acks == {"n1"} and not future.done
        leader.disk.io_error = False
        sim.run_for(0.5)  # one retry tick: journal once, fsync, count, choose
        assert future.done and future.exception is None
        assert len(_accept_records(leader, slot)) == 1
        sim.run_for(1.0)
        assert len(_accept_records(leader, slot)) == 1

    def test_retry_tick_does_not_rejournal_under_a_pending_fsync(self):
        sim, _net, hosts = _own_vote_cluster()
        leader = hosts[0]
        leader.disk.fsync_factor = 200.0  # 400 ms: longer than a retry interval
        future = leader.propose(Command(kind="app", payload="x", dedup=("c", 1)))
        slot = max(leader.replica._pending)
        assert leader.replica._pending[slot].own_wal
        sim.run_for(0.35)  # a retry tick fired with the fsync still pending
        assert not future.done and slot in leader.replica._pending
        assert not leader.replica._pending[slot].own_wal  # the tick came and passed
        assert len(_accept_records(leader, slot)) == 1
        sim.run_for(0.1)
        assert future.done and future.exception is None
        assert len(_accept_records(leader, slot)) == 1

    def test_failed_fsync_is_rejournaled_one_tick_later(self):
        sim, _net, hosts = _own_vote_cluster()
        leader = hosts[0]
        future = leader.propose(Command(kind="app", payload="x", dedup=("c", 1)))
        slot = max(leader.replica._pending)
        leader.disk.io_error = True  # the append made it; its fsync will not
        sim.run_for(0.05)
        leader.disk.io_error = False
        assert leader.replica._pending[slot].acks == {"n1"}
        sim.run_for(0.9)  # tick 1 gives the fsync its chance, tick 2 journals again
        assert future.done and future.exception is None
        assert len(_accept_records(leader, slot)) == 2
        assert _no_reneges(hosts)


class TestScatterRecovery:
    def test_node_restart_with_storage_keeps_groups_consistent(self):
        params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=5)
        deployment = build_scatter_deployment(
            params, config=experiment_scatter_config(storage=StorageConfig())
        )
        sim, system = deployment.sim, deployment.system
        workload = ClosedLoopWorkload(
            sim, deployment.clients, UniformKeys(20), read_fraction=0.5
        )
        workload.start()
        sim.run_for(5.0)
        victim = system.nodes[sorted(system.nodes)[0]]
        victim.crash()
        sim.run_for(2.0)
        victim.restart()
        sim.run_for(5.0)
        workload.stop()
        sim.run_for(1.0)
        recovered = [
            region
            for region in victim.disk.regions.values()
            if region.recoveries > 0
        ]
        assert recovered, "restart must run real recovery"
        assert all(not region.reneged for region in recovered)
        # the restarted node's groups converge with their peers
        for gid, replica in victim.groups.items():
            for node in system.nodes.values():
                other = node.groups.get(gid)
                if other is None or other is replica:
                    continue
                lo = max(replica.paxos.log.first_slot, other.paxos.log.first_slot)
                hi = min(replica.paxos.log.commit_index, other.paxos.log.commit_index)
                for slot in range(lo, hi + 1):
                    if replica.paxos.log.is_chosen(slot) and other.paxos.log.is_chosen(slot):
                        assert (
                            replica.paxos.log.chosen_value(slot)
                            == other.paxos.log.chosen_value(slot)
                        )


# ---------------------------------------------------------------------------
# Zero-perturbation (pattern from tests/test_obs.py)
# ---------------------------------------------------------------------------
def _drive(seed: int, storage: StorageConfig | None):
    params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(
        params, config=experiment_scatter_config(storage=storage)
    )
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(20), read_fraction=0.5
    )
    workload.start()
    deployment.sim.run_for(10.0)
    workload.stop()
    deployment.sim.run_for(1.0)
    records = workload.all_records()
    fingerprint = (
        deployment.sim.events_processed,
        deployment.net.stats.sent,
        deployment.net.stats.delivered,
        [
            (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9), r.hops, r.attempts)
            for r in records
        ],
    )
    return deployment, fingerprint


class TestZeroPerturbation:
    def test_disabled_storage_builds_no_disks(self):
        deployment, _fp = _drive(seed=7, storage=None)
        assert all(node.disk is None for node in deployment.system.nodes.values())

    def test_disabled_runs_are_deterministic_and_unaffected_by_enabled_runs(self):
        # Same seed, storage off: byte-identical — and running a
        # storage-enabled deployment in between must leak nothing
        # (no class-level or module-level state).
        _dep_a, fp_a = _drive(seed=7, storage=None)
        _dep_enabled, fp_enabled = _drive(seed=7, storage=StorageConfig())
        _dep_b, fp_b = _drive(seed=7, storage=None)
        assert fp_a == fp_b
        assert fp_enabled != fp_a  # fsync latency is real, results shift

    def test_enabled_runs_are_deterministic(self):
        _dep_a, fp_a = _drive(seed=7, storage=StorageConfig())
        _dep_b, fp_b = _drive(seed=7, storage=StorageConfig())
        assert fp_a == fp_b
        assert all(
            node.disk is not None for node in _dep_a.system.nodes.values()
        )


# ---------------------------------------------------------------------------
# Fuzzer integration: disk faults and the forgotten-promise canary
# ---------------------------------------------------------------------------
class TestFuzzIntegration:
    def test_storage_plan_with_disk_faults_runs_clean(self):
        from repro.check import run_plan, sample_plan

        # seed 42 iteration 92: disk_slow + disk_io + disk_loss faults
        plan = sample_plan(42, 92)
        assert plan.storage
        assert len({e.kind for e in plan.schedule if e.kind.startswith("disk_")}) >= 3
        outcome = run_plan(plan)
        assert not outcome.failed, outcome.failure
        assert outcome.ops_completed > 0

    def test_forgotten_promise_found_shrunk_and_replayed(self, tmp_path):
        from repro.check import FuzzConfig, load_repro, replay, run_fuzz

        summary = run_fuzz(
            FuzzConfig(
                master_seed=42,
                iterations=6,
                bug="forgotten-promise",
                out_dir=str(tmp_path),
            )
        )
        assert summary.found
        assert summary.failure.name == "acceptor-durability"
        assert summary.shrink["runs"] > 0
        assert summary.shrink["schedule_after"] <= summary.shrink["schedule_before"]
        reproduced, observed, recorded = replay(load_repro(summary.repro_path))
        assert reproduced, f"replay diverged: {observed} != {recorded}"
        assert observed == recorded
