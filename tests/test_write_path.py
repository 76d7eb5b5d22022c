"""The write-path throughput stack: WAL group commit, pipelined slots
with flow control, per-slot Accepts, and the batch-timer fix.

Covers four layers: the durability barrier on the disk model (one
fsync at a time, each covering what was appended during the one before
it; crash semantics), pipeline flow control in the leader (bounded
in-flight slots + admission queue), the wire (every ``Accept`` and
``Accepted`` carries one slot), and the zero-perturbation guarantee
that the consensus knobs at their defaults leave deployments
byte-identical to builds that never had them.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster
from repro.consensus.messages import Accept, Accepted
from repro.consensus.replica import PaxosConfig, _PendingSlot
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
class _Clock:
    """The host node's crash-guarded timers, for a disk under test:
    ``pending`` is what the disk has armed, as ``(due, fn)``; ``advance``
    fires what falls due, in order; ``cancel_all`` is what ``Node.crash``
    does to them before the disk loses power."""

    def __init__(self):
        self.now = 0.0
        self.pending = []

    def set_timer(self, delay, fn):
        self.pending.append((self.now + delay, fn))

    def advance(self, dt):
        end = self.now + dt
        while self.pending and min(t for t, _fn in self.pending) <= end:
            due = min(self.pending, key=lambda entry: entry[0])
            self.pending.remove(due)
            self.now = due[0]
            due[1]()
        self.now = end

    def cancel_all(self):
        self.pending.clear()


class TestGroupCommit:
    def test_one_fsync_covers_a_window_of_appends(self):
        # The window is the in-flight fsync.  Thirty proposals reach each
        # disk in one instant (a pipe as deep as the burst): the first
        # append starts an fsync, the other 29 arrive while it runs and
        # share the next one.
        sim, net, hosts = make_cluster(
            PaxosConfig(pipeline_depth=30, **FAST), storage=StorageConfig()
        )
        before = [total_fsyncs([h]) for h in hosts]
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        sim.run_for(3.0)
        assert all(f.exception is None for f in futures)
        assert [total_fsyncs([h]) - b for h, b in zip(hosts, before)] == [2, 2, 2]

    def test_group_commit_queue_drops_with_power_failure(self):
        # Unit-level: acks behind the running fsync, and acks waiting for
        # the next, must die with the un-fsynced suffix when the node
        # loses power.
        timers = _Clock()
        disk = NodeDisk("n0", StorageConfig(), set_timer=timers.set_timer)
        region = disk.storage_for("g")
        fired = []
        region.append_accept(0, (1, "n0"), "a")
        disk.enqueue_fsync(region, lambda: fired.append(0))
        region.append_accept(1, (1, "n0"), "b")
        disk.enqueue_fsync(region, lambda: fired.append(1))
        assert len(timers.pending) == 1  # one fsync in flight, not one timer per ack
        disk.power_failure()
        # The crash-guarded timer never fires in the real system; even if
        # the completion ran, both batches are gone and nothing acks.
        timers.pending[0][1]()
        assert fired == []
        assert region.records == []  # whole suffix was volatile
        assert region.fsyncs == 0
        assert len(timers.pending) == 1  # and no further fsync was started

    def test_completed_group_fsync_fans_out_all_acks(self):
        clock = _Clock()
        disk = NodeDisk("n0", StorageConfig(fsync_latency=2.0), set_timer=clock.set_timer)
        region_a = disk.storage_for("a")
        region_b = disk.storage_for("b")
        fired = []
        region_a.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(region_a, lambda: fired.append("a0"))
        # Both of these land while that fsync is in flight and ride the next.
        region_a.append_accept(1, (1, "n0"), "y")
        disk.enqueue_fsync(region_a, lambda: fired.append("a1"))
        region_b.append_promise((2, "n1"))
        disk.enqueue_fsync(region_b, lambda: fired.append("b0"))
        assert len(clock.pending) == 1
        clock.advance(2.0)
        assert fired == ["a0"]
        assert region_a.synced_seq == 1 and region_b.synced_seq == 0
        assert len(clock.pending) == 1  # the completion started the next at once
        clock.advance(2.0)
        assert fired == ["a0", "a1", "b0"]
        # One fsync per region in the batch, each covering its whole tail.
        assert region_a.fsyncs == 2 and region_b.fsyncs == 1
        assert region_a.synced_seq == region_a.current_seq()
        assert region_b.synced_seq == region_b.current_seq()
        assert clock.pending == []  # nothing waited: the disk is idle

    def test_crash_during_window_recovers_clean(self):
        # A follower crashing mid-window must come back with no reneged
        # promise/accept: every ack it sent was covered by an fsync.
        config = PaxosConfig(**FAST)
        sim, net, hosts = make_cluster(config, storage=StorageConfig())
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
        clock = _Clock()
        disk = NodeDisk("n0", StorageConfig(fsync_latency=2.0), set_timer=clock.set_timer)
        region = disk.storage_for("g")
        fired = []
        region.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(region, lambda: fired.append(0))
        disk.io_error = True
        clock.advance(2.0)
        assert fired == [] and clock.pending == []
        assert region.fsyncs == 0  # batch stayed volatile; leader retries


def _durable_count(region):
    return sum(1 for r in region.records if r.seq <= region.synced_seq)


class TestOneFsyncAtATime:
    """The durability barrier: counts and simulated times, which repeat
    exactly.  Times are whole ticks so the floats are exact too."""

    def disk(self):
        clock = _Clock()
        return clock, NodeDisk("n0", StorageConfig(fsync_latency=2.0), set_timer=clock.set_timer)

    def test_never_two_fsyncs_in_flight_across_regions(self):
        clock, disk = self.disk()
        regions = [disk.storage_for(gid) for gid in ("a", "b", "c")]
        acked = []
        for tick in range(12):  # an ack per tick, round the regions, 2-tick fsyncs
            region = regions[tick % 3]
            region.append_accept(tick, (1, "n0"), tick)
            disk.enqueue_fsync(region, lambda tick=tick: acked.append((clock.now, tick)))
            assert len(clock.pending) == 1
            clock.advance(1.0)
            assert len(clock.pending) <= 1
        clock.advance(4.0)
        assert clock.pending == []
        # Tick 0 found the disk idle and tick 1 arrived during its fsync;
        # after that every fsync covers the two acks that arrived during
        # the one before it.
        assert acked == [
            (2.0, 0), (4.0, 1), (6.0, 2), (6.0, 3), (8.0, 4), (8.0, 5), (10.0, 6),
            (10.0, 7), (12.0, 8), (12.0, 9), (14.0, 10), (14.0, 11),
        ]
        assert sum(region.fsyncs for region in regions) == 12  # one per region in a batch

    def test_append_during_an_fsync_is_not_covered_by_it(self):
        clock, disk = self.disk()
        region = disk.storage_for("g")
        acked = []
        region.append_accept(0, (1, "n0"), "a")
        disk.enqueue_fsync(region, lambda: acked.append("a"))
        clock.advance(1.0)
        region.append_accept(1, (1, "n0"), "b")  # lands mid-fsync
        disk.enqueue_fsync(region, lambda: acked.append("b"))
        clock.advance(1.0)  # the first fsync completes, the second starts
        assert acked == ["a"] and region.synced_seq == 1
        clock.advance(1.9)  # just short of the second completion
        clock.cancel_all()
        disk.power_failure()
        assert [r.value for r in region.records] == ["a"]
        clock.advance(10.0)
        assert acked == ["a"]

    def test_power_failure_before_the_next_completion_keeps_the_ledger_clean(self):
        # The same, through a live follower: x finds its disk idle, y lands
        # while x's fsync runs and is lost with the power just before its own.
        sim, net, hosts = make_cluster(PaxosConfig(**FAST), storage=StorageConfig())
        follower = hosts[1]
        storage = follower.replica.storage
        hosts[0].propose(Command(kind="app", payload="x", dedup=("c", 1)))
        sim.run_for(0.001)
        hosts[0].propose(Command(kind="app", payload="y", dedup=("c", 2)))
        slot_x, slot_y = sorted(hosts[0].replica._pending)
        sim.run_for(0.0079)  # x: 5 ms out, fsync 5-7 ms; y: arrives at 6, fsync 7-9 ms
        assert slot_x in storage.acked_accepts and slot_y not in storage.acked_accepts
        assert [r.slot for r in storage.records if r.kind == "accept"][-2:] == [slot_x, slot_y]
        follower.crash()
        assert [r.slot for r in storage.records if r.kind == "accept"][-1] == slot_x
        sim.run_for(0.5)
        assert slot_y not in storage.acked_accepts  # no ack escaped
        follower.restart()
        sim.run_for(2.0)
        assert all(h.replica.storage.reneged == [] for h in hosts)
        assert app_payloads(follower)[-2:] == ["x", "y"]  # caught up the ordinary way

    def test_io_error_at_completion_withholds_only_that_batch(self):
        clock, disk = self.disk()
        region = disk.storage_for("g")
        acked = []
        region.append_accept(0, (1, "n0"), "a")
        disk.enqueue_fsync(region, lambda: acked.append("a"))
        region.append_accept(1, (1, "n0"), "b")
        disk.enqueue_fsync(region, lambda: acked.append("b"))
        disk.io_error = True
        clock.advance(2.0)  # the first fsync fails; the waiting batch starts anyway
        assert acked == [] and region.fsyncs == 0 and len(clock.pending) == 1
        disk.io_error = False
        clock.advance(2.0)
        assert acked == ["b"]
        assert region.fsyncs == 1 and region.synced_seq == region.current_seq()

    def test_slow_disk_grows_the_batch_not_the_queue(self):
        def fsyncs_for(factor):
            clock, disk = self.disk()
            disk.fsync_factor = factor
            region = disk.storage_for("g")
            acked = []
            for tick in range(20):
                region.append_accept(tick, (1, "n0"), tick)
                disk.enqueue_fsync(region, lambda tick=tick: acked.append(tick))
                clock.advance(1.0)
                assert len(clock.pending) <= 1
            clock.advance(100.0)
            assert acked == list(range(20))
            return region.fsyncs

        assert fsyncs_for(1.0) == 11  # 2-tick fsyncs: the first ack, then pairs
        assert fsyncs_for(10.0) == 2  # 20-tick fsyncs: the first ack, then all the rest


class _ReferenceDisk:
    """One fsync at a time, written the obvious way: a clock, two lists
    and per-region record counts."""

    def __init__(self, latency):
        self.latency, self.now, self.done_at = latency, 0.0, None
        self.running, self.waiting, self.acks, self.io_error = [], [], [], False
        self.logged, self.durable = {}, {}

    def append(self, gid):
        if not self.io_error:
            self.logged[gid] = self.logged.get(gid, 0) + 1

    def enqueue(self, gid, tag):
        self.waiting.append((gid, self.logged.get(gid, 0), tag))
        if self.done_at is None:
            self._start()

    def _start(self):
        self.running, self.waiting, self.done_at = self.waiting, [], self.now + self.latency

    def advance(self, dt):
        end = self.now + dt
        while self.done_at is not None and self.done_at <= end:
            batch, self.now, self.done_at = self.running, self.done_at, None
            if self.waiting:
                self._start()
            if not self.io_error:
                for gid, upto, tag in batch:
                    self.durable[gid] = max(self.durable.get(gid, 0), upto)
                    self.acks.append(tag)
        self.now = end

    def power_failure(self):
        self.running, self.waiting, self.done_at = [], [], None
        self.logged = dict(self.durable)


_gids = hyp.sampled_from(["a", "b"])
_disk_ops = hyp.lists(
    hyp.one_of(
        hyp.tuples(hyp.just("append"), _gids),
        hyp.tuples(hyp.just("enqueue"), _gids),
        hyp.tuples(hyp.just("advance"), hyp.integers(1, 5)),
        hyp.tuples(hyp.just("power_failure")),
        hyp.tuples(hyp.just("io_error"), hyp.booleans()),
    ),
    max_size=80,
)


class TestDiskMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ops=_disk_ops)
    def test_same_acks_in_the_same_order(self, ops):
        clock = _Clock()
        disk = NodeDisk("n0", StorageConfig(fsync_latency=3.0), set_timer=clock.set_timer)
        ref = _ReferenceDisk(3.0)
        acks = []
        for tag, (op, *args) in enumerate(ops):
            if op == "append":
                disk.storage_for(args[0]).append_accept(tag, (1, "n0"), tag)
                ref.append(args[0])
            elif op == "enqueue":
                disk.enqueue_fsync(disk.storage_for(args[0]), lambda tag=tag: acks.append(tag))
                ref.enqueue(args[0], tag)
            elif op == "advance":
                clock.advance(float(args[0]))
                ref.advance(float(args[0]))
            elif op == "power_failure":
                clock.cancel_all()
                disk.power_failure()
                ref.power_failure()
            else:
                disk.io_error = ref.io_error = args[0]
            assert acks == ref.acks
            assert len(clock.pending) == (ref.done_at is not None) <= 1
            for gid, region in disk.regions.items():
                assert len(region.records) == ref.logged.get(gid, 0)
                assert _durable_count(region) == ref.durable.get(gid, 0)


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



# ---------------------------------------------------------------------------
# One slot per Accept
# ---------------------------------------------------------------------------
class TestAcceptCoalescing:
    def run_burst(self):
        """(peer, slot) of every Accept and Accepted sent for a 24-op
        burst, in send order; the peer is the follower at the other end."""
        sim, net, hosts = make_cluster(PaxosConfig(**FAST), seed=3)
        sent = {"Accept": [], "Accepted": []}
        for host in hosts:
            transport = host.replica.transport

            def tap(dst, msg, _send=transport.send, _me=host.replica.replica_id):
                if isinstance(msg, Accept):
                    sent["Accept"].append((dst, msg.slot))
                elif isinstance(msg, Accepted):
                    sent["Accepted"].append((_me, msg.slot))
                _send(dst, msg)

            transport.send = tap
        futures = [hosts[0].propose(Command.app(i)) for i in range(24)]
        sim.run_for(3.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert app_payloads(host) == list(range(24))
        return sent

    def test_coalescing_off_sends_no_batches(self):
        # Each slot's Accept leaves when the slot is issued, so each
        # peer's first Accept and first Accepted of every slot come in
        # slot order; the retry tick may repeat a slot, never merge two.
        sent = self.run_burst()
        for kind in ("Accept", "Accepted"):
            firsts = list(dict.fromkeys(sent[kind]))
            for peer in ("n1", "n2"):
                slots = [slot for p, slot in firsts if p == peer]
                assert slots == list(range(slots[0], slots[0] + 24)), (kind, peer)

    def test_retry_after_partition_retransmits_batches(self):
        sim, net, hosts = make_cluster(PaxosConfig(**FAST))
        net.block("n0", "n2")
        futures = [hosts[0].propose(Command.app(i)) for i in range(6)]
        sim.run_for(1.0)  # commits via n1; n2 misses the original sends
        net.heal()
        sim.run_for(2.0)
        assert all(f.exception is None for f in futures)
        assert app_payloads(hosts[2]) == list(range(6))


class TestOneAcceptorStep:
    """Four remote Accepts and the leader's own votes on the same four
    slots take the same acceptor step, so the same input yields the
    same acks."""

    COMMANDS = tuple(Command(kind="app", payload=i, dedup=("c", i)) for i in range(4))

    def acks_for(self, storage, own, io_error_on=None):
        """Offsets acked for the four slots above the commit index, and
        the acceptor's ledger: a follower's when ``own`` is false, else
        the leader's, whose votes are counted into its pending slots."""
        sim, _net, hosts = make_cluster(PaxosConfig(**FAST), storage=storage)
        replica = hosts[0 if own else 1].replica
        acked = []

        def record(dst, msg):  # and nothing reaches the peers
            if isinstance(msg, Accepted):
                acked.append(msg.slot)

        replica.transport.send = record
        ballot, start = replica.promised, replica.log.commit_index + 1
        if io_error_on is not None:
            real = replica.storage.append_accept
            replica.storage.append_accept = (
                lambda slot, b, c: slot != start + io_error_on and real(slot, b, c)
            )
        for slot, command in enumerate(self.COMMANDS, start):
            if own:
                replica._pending[slot] = _PendingSlot(command=command)
                replica._accept_own(slot, command)
            else:
                replica.on_message("n0", Accept(ballot, slot, command, -1))
        sim.run_for(0.05)
        if own:
            acked = [slot for slot, p in replica._pending.items() if replica.replica_id in p.acks]
        ledger = dict(replica.storage.acked_accepts) if storage else None
        return sorted(slot - start for slot in acked), ledger

    def test_same_acks_without_storage(self):
        assert self.acks_for(None, True) == self.acks_for(None, False) == ([0, 1, 2, 3], None)

    def test_same_acks_and_ledger_with_storage(self):
        storage = StorageConfig()
        own, remote = self.acks_for(storage, True), self.acks_for(storage, False)
        assert own == remote
        assert own[0] == [0, 1, 2, 3] and len(own[1]) >= 4

    def test_same_acks_when_one_append_fails(self):
        storage = StorageConfig()
        own = self.acks_for(storage, True, io_error_on=2)
        assert own == self.acks_for(storage, False, io_error_on=2)
        assert own[0] == [0, 1, 3]

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
        config = PaxosConfig(batch_window=0.05, batch_max=4, **FAST)
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


FULL_STACK = dict(batch_max=16, pipeline_depth=8)


class TestZeroPerturbation:
    def test_defaults_identical_and_unaffected_by_enabled_runs(self):
        fp_a = _drive(seed=11)
        fp_on = _drive(
            seed=11,
            paxos_extra=FULL_STACK,
            storage=StorageConfig(),
            msg_service_time=0.001,
        )
        fp_b = _drive(seed=11)
        assert fp_a == fp_b
        assert fp_on != fp_a

    def test_enabled_runs_are_deterministic(self):
        kwargs = dict(
            paxos_extra=FULL_STACK,
            storage=StorageConfig(),
            msg_service_time=0.001,
        )
        assert _drive(seed=11, **kwargs) == _drive(seed=11, **kwargs)


# ---------------------------------------------------------------------------
# Fuzzer integration
# ---------------------------------------------------------------------------
class TestFuzzKnobs:
    def test_sampled_plans_randomize_write_path_knobs(self):
        from repro.check import sample_plan

        plans = [sample_plan(7, i) for i in range(24)]
        assert any(p.batching for p in plans)
        assert len({p.pipeline_depth for p in plans}) > 1
        # ...and the defaults still appear, so both paths stay fuzzed.
        assert any(not p.batching for p in plans)

    def test_plan_roundtrip_preserves_knobs(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        plan = sample_plan(7, 3)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_old_repro_files_deserialize_to_historical_defaults(self, tmp_path):
        from repro.check import (
            FailureSummary, dump_repro, load_repro, replay, repro_dict, sample_plan,
        )
        from repro.check.plan import plan_from_dict, plan_to_dict
        from repro.check.repro_file import plan_of

        data = plan_to_dict(sample_plan(7, 3))
        for legacy_missing in ("batching", "pipeline_depth"):
            data.pop(legacy_missing)
        plan = plan_from_dict(data)
        assert plan.batching is False
        assert plan.pipeline_depth == PaxosConfig().pipeline_depth
        # A file written while Accepts could be coalesced, or the pipe
        # unbounded, loads onto the shipped write path.
        data.update(accept_coalescing=True, pipeline_depth=0)
        assert plan_from_dict(data) == plan
        assert "accept_coalescing" not in plan_to_dict(plan_from_dict(data))

        # A file written while the disk had a group-commit window carries
        # its setting: it loads, replays and is saved again without it.
        plan = sample_plan(7, 3)
        recorded = FailureSummary("invariant", "no-such-invariant", "", 0.0)
        old = repro_dict(plan, recorded, None)
        old["plan"]["fsync_coalesce"] = 0.002
        dump_repro(old, tmp_path / "old.json")
        loaded = load_repro(tmp_path / "old.json")
        assert loaded["plan"]["fsync_coalesce"] == 0.002
        assert plan_of(loaded) == plan
        reproduced, observed, _recorded = replay(loaded)
        assert not reproduced and observed is None  # ran to the end, clean
        assert repro_dict(plan_of(loaded), recorded, None) == repro_dict(plan, recorded, None)
        assert "fsync_coalesce" not in repro_dict(plan_of(loaded), recorded, None)["plan"]

    def test_knobbed_plan_runs_clean(self):
        from repro.check import run_plan, sample_plan

        plan = next(
            replace(sample_plan(7, i), batching=True, pipeline_depth=4)
            for i in range(20)
            if any(e.kind.startswith("disk_") for e in sample_plan(7, i).schedule)
        )
        outcome = run_plan(plan)
        assert not outcome.failed, outcome.failure
        assert outcome.ops_completed > 0

    def test_forgotten_promise_caught_with_group_commit_on(self):
        # The canary bug must stay detectable when acks ride a shared
        # fsync: acceptor-durability polices the batch.
        from repro.check import run_plan, sample_plan

        found = False
        for i in range(12):
            plan = replace(
                sample_plan(42, i),
                batching=True,
                pipeline_depth=4,
            )
            outcome = run_plan(plan, bug="forgotten-promise")
            if outcome.failed and outcome.failure.name == "acceptor-durability":
                found = True
                break
        assert found, "canary must fire with the write-path stack enabled"
