"""Invariant registry unit tests and the zero-perturbation guard.

Two angles: (1) each invariant holds on a healthy deployment and fires
on targeted synthetic corruption of replica state; (2) attaching the
InvariantMonitor to a run changes nothing observable — same seed, same
client history, same network traffic, with or without it.
"""

from __future__ import annotations

import pytest

from repro.check import ALL_INVARIANTS, InvariantMonitor
from repro.check.demo import demo_bug
from repro.check.invariants import (
    authoritative_arcs,
    check_leader_exclusivity,
    check_log_agreement,
    check_ring_coverage,
    check_txn_atomicity,
)
from repro.check.plan import sample_plan
from repro.check.workload import ScriptedWorkload
from repro.consensus.replica import PaxosReplica
from repro.dht.client import ScatterClient
from repro.dht.ring import KEY_SPACE, KeyRange
from repro.dht.system import ScatterSystem
from repro.faults.schedule import ScheduleRunner
from repro.faults.target import FaultTarget
from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.policies import ScatterPolicy
from repro.sim.latency import LogNormalLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.harness.builders import experiment_scatter_config


@pytest.fixture()
def deployment():
    dep = build_scatter_deployment(
        DeploymentParams(n_nodes=6, n_groups=2, n_clients=1, seed=5)
    )
    dep.sim.run_for(5.0)  # settle: elect leaders, establish leases
    return dep


def _some_replica(system):
    for node in system.nodes.values():
        for replica in node.groups.values():
            return replica
    raise AssertionError("no replicas")


def _group_replicas(system, gid):
    return [
        node.groups[gid]
        for node in system.nodes.values()
        if gid in node.groups and node.alive
    ]


class TestHealthyDeployment:
    def test_all_invariants_hold(self, deployment):
        for name, check in ALL_INVARIANTS.items():
            assert check(deployment.system) == [], f"{name} failed on healthy system"

    def test_arcs_tile_the_ring(self, deployment):
        arcs = authoritative_arcs(deployment.system)
        assert len(arcs) == 2
        spans = sorted(arcs.values())
        assert spans[0][1] == spans[1][0] and spans[1][1] == spans[0][0]


class TestSyntheticCorruption:
    def test_duplicate_txn_apply_detected(self, deployment):
        replica = _some_replica(deployment.system)
        replica.txn_log.append(("txn-x", "committed"))
        replica.txn_log.append(("txn-x", "committed"))
        problems = check_txn_atomicity(deployment.system)
        assert any("applied twice" in p for p in problems)

    def test_conflicting_decisions_detected(self, deployment):
        system = deployment.system
        gid = next(iter(system.active_groups()))
        a, b = _group_replicas(system, gid)[:2]
        a.txn_log.append(("txn-y", "committed"))
        b.txn_log.append(("txn-y", "aborted"))
        problems = check_txn_atomicity(system)
        assert any("conflicting decisions" in p for p in problems)

    def test_divergent_chosen_value_detected(self, deployment):
        system = deployment.system
        gid = next(iter(system.active_groups()))
        replicas = _group_replicas(system, gid)
        log = replicas[0].paxos.log
        slot = log.commit_index
        assert slot >= 0, "settled group must have committed entries"
        log.entry(slot).accepted_value = "corrupted"
        problems = check_log_agreement(system)
        assert any("diverges" in p for p in problems)

    def test_two_leaders_same_ballot_detected(self, deployment):
        system = deployment.system
        gid = next(iter(system.active_groups()))
        replicas = _group_replicas(system, gid)
        leader = next(r for r in replicas if r.paxos.is_leader)
        follower = next(r for r in replicas if not r.paxos.is_leader)
        follower.paxos.is_leader = True
        follower.paxos.ballot = leader.paxos.ballot
        problems = check_leader_exclusivity(system)
        assert any("leaders at ballot" in p for p in problems)

    def test_two_live_leases_detected(self, deployment):
        system = deployment.system
        sim = deployment.sim
        gid = next(iter(system.active_groups()))
        replicas = _group_replicas(system, gid)
        leader = next(r for r in replicas if r.paxos.lease_active)
        follower = next(r for r in replicas if not r.paxos.is_leader)
        follower.paxos.is_leader = True
        follower.paxos.ballot = (leader.paxos.ballot[0] + 1, 99)
        follower.paxos._lease_until = sim.now + 10.0
        follower.paxos._read_barrier_slot = 0  # pretend the barrier committed
        problems = check_leader_exclusivity(system)
        assert any("live leases" in p for p in problems)

    def test_ring_overlap_detected(self, deployment):
        system = deployment.system
        gids = sorted(system.active_groups())
        # Stretch one group's arc over the whole ring on every replica.
        for replica in _group_replicas(system, gids[0]):
            replica.range = KeyRange(0, 0)
        problems = check_ring_coverage(system)
        assert problems, "overlapping arcs must be reported"

    def test_in_flight_structural_txn_suppresses_ring_check(self, deployment):
        system = deployment.system
        gids = sorted(system.active_groups())
        for replica in _group_replicas(system, gids[0]):
            replica.range = KeyRange(0, 0)
        victim = _some_replica(system)
        victim.active_txn = object()  # split/merge 2PC still propagating
        try:
            assert check_ring_coverage(system) == []
        finally:
            victim.active_txn = None
        assert check_ring_coverage(system)  # reported once the txn resolves


class TestDemoBug:
    def test_patch_is_scoped_and_restored(self):
        original = PaxosReplica._majority
        with demo_bug("quorum-off-by-one"):
            assert PaxosReplica._majority is not original
        assert PaxosReplica._majority is original

    def test_none_is_a_no_op(self):
        original = PaxosReplica._majority
        with demo_bug(None):
            assert PaxosReplica._majority is original

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            with demo_bug("no-such-bug"):
                pass


# ---------------------------------------------------------------------------
# Zero perturbation: the monitor observes, never interferes
# ---------------------------------------------------------------------------
def _drive_plan(monitored: bool):
    """Replicate run_plan's build for one sampled plan, +/- the monitor.

    The fingerprint deliberately excludes ``events_processed``: monitor
    ticks are themselves events, so the count legitimately differs.  The
    workload history and every message on the wire must not.
    """
    plan = sample_plan(3, 0)
    sim = Simulator(seed=plan.sim_seed)
    net = SimNetwork(sim, latency=LogNormalLatency(0.004, 0.4))
    size = plan.group_size
    policy = ScatterPolicy(
        target_size=size, split_size=2 * size + 1, merge_size=max(1, size - 2)
    )
    system = ScatterSystem.build(
        sim,
        net,
        n_nodes=plan.n_nodes,
        n_groups=plan.n_groups,
        config=experiment_scatter_config(),
        policy=policy,
    )
    clients = [
        ScatterClient(f"c{i}", sim, net, seed_provider=system.alive_node_ids)
        for i in range(plan.n_clients)
    ]
    target = FaultTarget.for_system(system)
    workload = ScriptedWorkload(sim, clients, plan.ops)
    schedule = ScheduleRunner(sim, system, target, plan.schedule)
    monitor = InvariantMonitor(sim, system) if monitored else None

    sim.run_for(plan.warmup)
    if monitor:
        monitor.start()
    workload.start()
    schedule.start()
    sim.run_for(plan.duration)
    schedule.stop()
    sim.run_for(plan.drain)
    if monitor:
        monitor.stop()
        assert monitor.samples > 0  # it really was watching

    records = workload.all_records()
    return (
        net.stats.sent,
        net.stats.delivered,
        net.stats.dropped,
        [
            (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9),
             r.hops, r.attempts)
            for r in records
        ],
    )


class TestZeroPerturbation:
    def test_monitor_does_not_perturb_the_run(self):
        assert _drive_plan(monitored=True) == _drive_plan(monitored=False)
