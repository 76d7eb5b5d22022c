"""The write-path throughput stack: WAL group commit, pipelined slots
with flow control, accept coalescing, and the batch-timer fix.

Covers four layers: the group-commit scheduler on the disk model
(single fsync covering a window of appends, crash semantics), pipeline
flow control in the leader (bounded in-flight slots + admission queue),
accept coalescing on the wire (AcceptBatch/AcceptedBatch), and the
zero-perturbation guarantee that all knobs at their defaults leave
deployments byte-identical to builds that never had them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster
from repro.consensus.replica import PaxosConfig
from repro.harness.builders import (
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.latency import ConstantLatency
from repro.storage.disk import NodeDisk, StorageConfig
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

FAST = dict(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
)


def make_cluster(config, storage=None, seed=0, n=3):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    net.stats.count_types = True
    hosts = build_cluster(sim, net, n=n, config=config, storage=storage)
    sim.run_for(1.0)
    return sim, net, hosts


def app_payloads(host):
    return [c.payload for _slot, c in host.applied if c.kind == "app"]


def total_fsyncs(hosts):
    return sum(
        region.fsyncs for h in hosts if h.disk for region in h.disk.regions.values()
    )


# ---------------------------------------------------------------------------
# WAL group commit
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_one_fsync_covers_a_window_of_appends(self):
        def fsyncs_for(coalesce):
            sim, net, hosts = make_cluster(
                PaxosConfig(**FAST),
                storage=StorageConfig(fsync_coalesce=coalesce),
            )
            before = total_fsyncs(hosts)
            futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
            sim.run_for(3.0)
            assert all(f.exception is None for f in futures)
            return total_fsyncs(hosts) - before

        grouped = fsyncs_for(0.005)
        per_ack = fsyncs_for(0.0)
        assert grouped < 0.5 * per_ack, (grouped, per_ack)

    def test_group_commit_queue_drops_with_power_failure(self):
        # Unit-level: acks queued behind the coalescing window must die
        # with the un-fsynced suffix when the node loses power.
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region = disk.storage_for("g")
        timers = []
        fired = []
        region.append_accept(0, (1, "n0"), "a")
        disk.enqueue_fsync(
            region,
            region.current_seq(),
            lambda delay, fn: timers.append((delay, fn)),
            lambda: fired.append(0),
        )
        region.append_accept(1, (1, "n0"), "b")
        disk.enqueue_fsync(
            region,
            region.current_seq(),
            lambda delay, fn: timers.append((delay, fn)),
            lambda: fired.append(1),
        )
        assert len(timers) == 1  # one armed window, not one timer per ack
        disk.power_failure()
        # The crash-guarded timer never fires in the real system; even if
        # the completion ran, the queue is empty and nothing acks.
        timers[0][1]()
        assert fired == []
        assert region.records == []  # whole suffix was volatile
        assert region.fsyncs == 0

    def test_completed_group_fsync_fans_out_all_acks(self):
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region_a = disk.storage_for("a")
        region_b = disk.storage_for("b")
        timers = []
        fired = []
        region_a.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(
            region_a,
            region_a.current_seq(),
            lambda d, fn: timers.append(fn),
            lambda: fired.append("a0"),
        )
        region_b.append_promise((2, "n1"))
        disk.enqueue_fsync(
            region_b,
            region_b.current_seq(),
            lambda d, fn: timers.append(fn),
            lambda: fired.append("b0"),
        )
        assert len(timers) == 1
        timers[0]()
        assert fired == ["a0", "b0"]
        # One fsync per region in the batch, each covering its whole tail.
        assert region_a.fsyncs == 1 and region_b.fsyncs == 1
        assert region_a.synced_seq == region_a.current_seq()
        assert region_b.synced_seq == region_b.current_seq()

    def test_crash_during_window_recovers_clean(self):
        # A follower crashing mid-window must come back with no reneged
        # promise/accept: every ack it sent was covered by an fsync.
        config = PaxosConfig(**FAST)
        sim, net, hosts = make_cluster(
            config, storage=StorageConfig(fsync_coalesce=0.004)
        )
        for i in range(10):
            hosts[0].propose(Command.app(i))
        sim.run_for(0.03)  # mid-burst: un-fsynced windows are open
        hosts[1].crash()
        sim.run_for(0.5)
        hosts[1].restart()
        sim.run_for(2.0)
        for region in hosts[1].disk.regions.values():
            assert region.reneged == []
            assert region.recoveries >= 1
        more = [hosts[0].propose(Command.app(f"post{i}")) for i in range(5)]
        sim.run_for(2.0)
        assert all(f.exception is None for f in more)

    def test_io_error_at_group_fsync_withholds_every_ack(self):
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region = disk.storage_for("g")
        fired = []
        timers = []
        region.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(
            region, region.current_seq(), lambda d, fn: timers.append(fn), lambda: fired.append(0)
        )
        disk.io_error = True
        timers[0]()
        assert fired == []
        assert region.fsyncs == 0  # batch stayed volatile; leader retries


# ---------------------------------------------------------------------------
# Pipeline flow control
# ---------------------------------------------------------------------------
class TestPipeline:
    def test_depth_bounds_in_flight_slots(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=4, **FAST))
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        replica = hosts[0].replica
        assert len(replica._pending) <= 4
        assert len(replica._queue) >= 30 - 4
        sim.run_for(5.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert app_payloads(host) == list(range(30))

    def test_window_stays_bounded_throughout_the_run(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=2, **FAST))
        for i in range(20):
            hosts[0].propose(Command.app(i))
        high_water = [0]

        def probe():
            high_water[0] = max(high_water[0], len(hosts[0].replica._pending))
            sim.schedule(0.002, probe)

        sim.schedule(0.0, probe)
        sim.run_for(5.0)
        assert 0 < high_water[0] <= 2

    def test_depth_zero_is_unbounded(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=0, **FAST))
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        assert len(hosts[0].replica._pending) == 30
        assert not hosts[0].replica._queue
        sim.run_for(3.0)
        assert all(f.exception is None for f in futures)


# ---------------------------------------------------------------------------
# Accept coalescing
# ---------------------------------------------------------------------------
class TestAcceptCoalescing:
    def run_burst(self, coalescing, pipeline_depth=8):
        sim, net, hosts = make_cluster(
            PaxosConfig(
                accept_coalescing=coalescing, pipeline_depth=pipeline_depth, **FAST
            ),
            seed=3,
        )
        # The network wraps everything in RPC envelopes, so count message
        # types where the replicas actually receive them.
        by_type: dict[str, int] = {}
        for host in hosts:
            original = host.replica.on_message

            def wrapped(src, msg, _orig=original):
                name = type(msg).__name__
                by_type[name] = by_type.get(name, 0) + 1
                return _orig(src, msg)

            host.replica.on_message = wrapped
        futures = [hosts[0].propose(Command.app(i)) for i in range(24)]
        sim.run_for(3.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert app_payloads(host) == list(range(24))
        return by_type

    def test_bursts_pack_into_accept_batches(self):
        by_type = self.run_burst(coalescing=True)
        assert by_type.get("AcceptBatch", 0) > 0
        assert by_type.get("AcceptedBatch", 0) > 0
        # A 24-op burst costs far fewer than 24 Accepts per peer.
        plain = self.run_burst(coalescing=False)
        batched_total = by_type.get("Accept", 0) + by_type.get("AcceptBatch", 0)
        assert batched_total < 0.5 * plain.get("Accept", 0)

    def test_coalescing_off_sends_no_batches(self):
        by_type = self.run_burst(coalescing=False)
        assert "AcceptBatch" not in by_type
        assert "AcceptedBatch" not in by_type

    def test_retry_after_partition_retransmits_batches(self):
        sim, net, hosts = make_cluster(
            PaxosConfig(accept_coalescing=True, pipeline_depth=8, **FAST)
        )
        net.block("n0", "n2")
        futures = [hosts[0].propose(Command.app(i)) for i in range(6)]
        sim.run_for(1.0)  # commits via n1; n2 misses the original sends
        net.heal()
        sim.run_for(2.0)
        assert all(f.exception is None for f in futures)
        assert app_payloads(hosts[2]) == list(range(6))


class TestOneAcceptorStep:
    """Per-slot Accepts, an AcceptBatch and the leader's own vote all take
    the same acceptor step, so the same input yields the same acks."""

    COMMANDS = tuple(Command(kind="app", payload=i, dedup=("c", i)) for i in range(4))

    def fresh_follower(self, storage):
        _sim, _net, hosts = make_cluster(PaxosConfig(**FAST), storage=storage)
        follower = hosts[1].replica
        acked = []

        def record(dst, msg):
            if type(msg).__name__ == "Accepted":
                acked.append((msg.slot,))
            elif type(msg).__name__ == "AcceptedBatch":
                acked.append(msg.slots)

        follower.transport.send = record
        return _sim, follower, acked

    def acks_for(self, storage, coalesced, io_error_on=None):
        from repro.consensus.messages import Accept, AcceptBatch

        sim, follower, acked = self.fresh_follower(storage)
        ballot, start = follower.promised, follower.log.commit_index + 1
        if io_error_on is not None:
            real = follower.storage.append_accept
            follower.storage.append_accept = (
                lambda slot, b, c: slot != start + io_error_on and real(slot, b, c)
            )
        if coalesced:
            follower.on_message("n0", AcceptBatch(ballot, start, self.COMMANDS, -1))
        else:
            for offset, command in enumerate(self.COMMANDS):
                follower.on_message("n0", Accept(ballot, start + offset, command, -1))
        sim.run_for(0.05)
        ledger = dict(follower.storage.acked_accepts) if storage else None
        return sorted(slot - start for ack in acked for slot in ack), ledger

    def test_same_acks_without_storage(self):
        assert self.acks_for(None, True) == self.acks_for(None, False) == ([0, 1, 2, 3], None)

    def test_same_acks_and_ledger_with_storage(self):
        storage = StorageConfig()
        batch, per_slot = self.acks_for(storage, True), self.acks_for(storage, False)
        assert batch == per_slot
        assert batch[0] == [0, 1, 2, 3] and len(batch[1]) >= 4

    def test_same_acks_when_one_append_fails(self):
        storage = StorageConfig(fsync_coalesce=0.002)
        batch = self.acks_for(storage, True, io_error_on=2)
        assert batch == self.acks_for(storage, False, io_error_on=2)
        assert batch[0] == [0, 1, 3]

    def test_leaders_own_vote_takes_the_same_step(self):
        sim, _net, hosts = make_cluster(PaxosConfig(**FAST), storage=StorageConfig())
        leader = hosts[0].replica
        futures = [hosts[0].propose(c) for c in self.COMMANDS]
        slots = sorted(leader._pending)
        sim.run_for(0.05)
        assert all(f.done for f in futures)
        for host in hosts:  # the same ledger entries on the leader as on each peer
            ledger = host.replica.storage.acked_accepts
            assert [ledger[s] for s in slots] == [
                (leader.ballot, f"app:{c.dedup}") for c in self.COMMANDS
            ]


# ---------------------------------------------------------------------------
# Stale batch-window timer (satellite fix)
# ---------------------------------------------------------------------------
class TestBatchTimerCancel:
    def test_early_flush_cancels_window_timer(self):
        config = PaxosConfig(batch=True, batch_window=0.05, batch_max=4, **FAST)
        sim, net, hosts = make_cluster(config)
        replica = hosts[0].replica
        t0 = sim.now
        hosts[0].propose(Command.app("arm"))  # arms the window timer at t0
        sim.run_for(0.02)
        # Hitting batch_max flushes early and must cancel the t0 timer.
        for i in range(4):
            hosts[0].propose(Command.app(f"fill{i}"))
        hosts[0].propose(Command.app("late"))  # second batch, armed at t0+0.02
        assert replica._batch_buffer, "the late op waits for its own window"
        sim.run_for(0.04)  # past t0+0.05 (stale timer) but before t0+0.07
        assert sim.now - t0 > 0.05
        assert replica._batch_buffer, (
            "stale window timer from the flushed batch must not flush "
            "the next batch before its own window"
        )
        sim.run_for(1.0)
        assert app_payloads(hosts[0]) == ["arm", "fill0", "fill1", "fill2", "fill3", "late"]


# ---------------------------------------------------------------------------
# Zero perturbation: all knobs at defaults == seed behavior
# ---------------------------------------------------------------------------
def _drive(seed, *, paxos_extra=None, storage=None, msg_service_time=0.0):
    paxos = PaxosConfig(
        heartbeat_interval=0.15,
        election_timeout=0.7,
        lease_duration=0.5,
        retry_interval=0.4,
        compact_threshold=400,
        **(paxos_extra or {}),
    )
    config = experiment_scatter_config(paxos=paxos, storage=storage)
    config.msg_service_time = msg_service_time
    params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(params, config=config)
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(20), read_fraction=0.5
    )
    workload.start()
    deployment.sim.run_for(10.0)
    workload.stop()
    deployment.sim.run_for(1.0)
    return (
        deployment.sim.events_processed,
        deployment.net.stats.sent,
        deployment.net.stats.delivered,
        [
            (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9))
            for r in workload.all_records()
        ],
    )


FULL_STACK = dict(batch=True, pipeline_depth=8, accept_coalescing=True)


class TestZeroPerturbation:
    def test_defaults_identical_and_unaffected_by_enabled_runs(self):
        fp_a = _drive(seed=11)
        fp_on = _drive(
            seed=11,
            paxos_extra=FULL_STACK,
            storage=StorageConfig(fsync_coalesce=0.002),
            msg_service_time=0.001,
        )
        fp_b = _drive(seed=11)
        assert fp_a == fp_b
        assert fp_on != fp_a

    def test_enabled_runs_are_deterministic(self):
        kwargs = dict(
            paxos_extra=FULL_STACK,
            storage=StorageConfig(fsync_coalesce=0.002),
            msg_service_time=0.001,
        )
        assert _drive(seed=11, **kwargs) == _drive(seed=11, **kwargs)

    def test_group_commit_alone_perturbs_only_when_on(self):
        fp_off = _drive(seed=12, storage=StorageConfig())
        fp_on = _drive(seed=12, storage=StorageConfig(fsync_coalesce=0.002))
        fp_off2 = _drive(seed=12, storage=StorageConfig())
        assert fp_off == fp_off2
        assert fp_on != fp_off


# ---------------------------------------------------------------------------
# Fuzzer integration
# ---------------------------------------------------------------------------
class TestFuzzKnobs:
    def test_sampled_plans_randomize_write_path_knobs(self):
        from repro.check import sample_plan

        plans = [sample_plan(7, i) for i in range(24)]
        assert any(p.batching for p in plans)
        assert any(p.pipeline_depth > 0 for p in plans)
        assert any(p.accept_coalescing for p in plans)
        assert any(p.fsync_coalesce > 0 for p in plans)
        # ...and the defaults still appear, so both paths stay fuzzed.
        assert any(not p.batching for p in plans)
        assert any(p.fsync_coalesce == 0 for p in plans)

    def test_plan_roundtrip_preserves_knobs(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        plan = sample_plan(7, 3)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_old_repro_files_deserialize_to_historical_defaults(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        data = plan_to_dict(sample_plan(7, 3))
        for legacy_missing in (
            "batching",
            "pipeline_depth",
            "accept_coalescing",
            "fsync_coalesce",
        ):
            data.pop(legacy_missing)
        plan = plan_from_dict(data)
        assert plan.batching is False
        assert plan.pipeline_depth == 0
        assert plan.accept_coalescing is False
        assert plan.fsync_coalesce == 0.0

    def test_knobbed_plan_runs_clean(self):
        from repro.check import run_plan, sample_plan

        plan = next(
            replace(sample_plan(7, i), batching=True, pipeline_depth=4,
                    accept_coalescing=True, fsync_coalesce=0.002)
            for i in range(20)
            if any(e.kind.startswith("disk_") for e in sample_plan(7, i).schedule)
        )
        outcome = run_plan(plan)
        assert not outcome.failed, outcome.failure
        assert outcome.ops_completed > 0

    def test_forgotten_promise_caught_with_group_commit_on(self):
        # The canary bug must stay detectable when acks ride the
        # coalesced fsync path: acceptor-durability polices the batch.
        from repro.check import run_plan, sample_plan

        found = False
        for i in range(12):
            plan = replace(
                sample_plan(42, i),
                batching=True,
                pipeline_depth=4,
                accept_coalescing=True,
                fsync_coalesce=0.002,
            )
            outcome = run_plan(plan, bug="forgotten-promise")
            if outcome.failed and outcome.failure.name == "acceptor-durability":
                found = True
                break
        assert found, "canary must fire with the write-path stack enabled"
