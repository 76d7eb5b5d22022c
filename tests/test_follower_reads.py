"""The scale-out read path: linearizable follower reads.

Covers the consensus-level grant protocol (heartbeat-carried read
grants, quorum expansion for writes, conflict windows), the group/DHT
serve-or-bounce path with replica-aware client routing, the
zero-perturbation guarantee that ``follower_reads=False`` leaves
deployments byte-identical to builds that never had the knob, and the
fuzzer integration (sampled knob, repro back-compat, and the
``stale-follower-read`` canary).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.linearizability import check_history
from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster, current_leader
from repro.consensus.log import PaxosLog
from repro.consensus.replica import PaxosConfig
from repro.dht.client import ClientConfig
from repro.harness.builders import (
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.obs import Tracer, tracing
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.latency import ConstantLatency
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

FAST = dict(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
)


def make_cluster(config, seed=0, n=3):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    hosts = build_cluster(sim, net, n=n, config=config)
    sim.run_for(1.0)
    return sim, net, hosts


def split_roles(hosts):
    leader = current_leader(hosts)
    assert leader is not None
    return leader, [h for h in hosts if h is not leader]


# ---------------------------------------------------------------------------
# Grant protocol (consensus level)
# ---------------------------------------------------------------------------
class TestGrants:
    def test_quiescent_followers_hold_grants_and_serve(self):
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        leader, followers = split_roles(hosts)
        for host in followers:
            assert host.replica.follower_read_allowed("k")
        # The leader serves via its lease, never via the follower path.
        assert not leader.replica.follower_read_allowed("k")

    def test_knob_off_never_serves(self):
        sim, net, hosts = make_cluster(PaxosConfig(**FAST))
        for host in hosts:
            assert not host.replica.follower_read_allowed("k")

    def test_grant_expires_without_heartbeats(self):
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        leader, followers = split_roles(hosts)
        cut = followers[0]
        net.block(leader.node_id, cut.node_id)
        # Past the grant lifetime but short of an election timeout.
        sim.run_for(0.4)
        assert not cut.replica.follower_read_allowed("k")
        assert followers[1].replica.follower_read_allowed("k")

    def test_advertised_dirty_key_blocks_only_that_key(self):
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        _leader, followers = split_roles(hosts)
        replica = followers[0].replica
        replica._fr_dirty = frozenset({"hot"})
        assert not replica.follower_read_allowed("hot")
        assert replica.follower_read_allowed("cold")
        replica._fr_dirty_all = True
        assert not replica.follower_read_allowed("cold")

    def test_accepted_but_unapplied_entry_blocks_reads(self):
        # An Accept the follower has logged above its applied prefix is a
        # write that may already be acknowledged elsewhere (quorum
        # expansion made sure this follower saw it first) — reads must
        # bounce until it applies.  With no write classifier installed
        # (raw consensus cluster) it is conservatively a wildcard write.
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        _leader, followers = split_roles(hosts)
        replica = followers[0].replica
        assert replica.follower_read_allowed("k")
        entry = replica.log.entry(replica.applied_index + 1)
        entry.accepted_ballot = (1, "n0")
        entry.accepted_value = Command.app("w")
        assert not replica.follower_read_allowed("k")

    def test_write_waits_for_partitioned_grantee(self):
        # Quorum expansion: while a follower's grant is live, a write is
        # not chosen on a bare majority that excludes it — otherwise that
        # follower could serve a stale read of an acknowledged write.
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        leader, followers = split_roles(hosts)
        cut = followers[0]
        assert cut.replica.follower_read_allowed("k")
        net.block(leader.node_id, cut.node_id)
        future = leader.propose(Command.app("w"))
        sim.run_for(0.2)  # plenty for a majority ack; grant still live
        assert not future.done
        net.heal()  # the grantee acks the retried Accept; now it chooses
        sim.run_for(0.5)
        assert future.done and future.exception is None

    def test_grant_expiry_unblocks_writes(self):
        # If the grantee never comes back, the write clears once every
        # grant the leader may have issued to it has provably expired
        # (bounded by the last granting send + lease_duration).  A slow
        # election timeout keeps the cut member from campaigning first.
        config = PaxosConfig(
            follower_reads=True,
            heartbeat_interval=0.1,
            election_timeout=2.5,
            lease_duration=0.35,
            retry_interval=0.3,
        )
        sim, net, hosts = make_cluster(config)
        leader, followers = split_roles(hosts)
        net.block(leader.node_id, followers[0].node_id)
        future = leader.propose(Command.app("w"))
        sim.run_for(0.2)
        assert not future.done
        sim.run_for(0.8)  # past the last possible grant's expiry
        assert future.done and future.exception is None

    def test_majority_suffices_with_knob_off(self):
        # Same partition, no follower reads: a bare majority commits.
        sim, net, hosts = make_cluster(PaxosConfig(**FAST))
        leader, followers = split_roles(hosts)
        net.block(leader.node_id, followers[0].node_id)
        future = leader.propose(Command.app("w"))
        sim.run_for(0.2)
        assert future.done and future.exception is None


class TestPendingValues:
    def test_covers_accepted_and_chosen_unapplied(self):
        log = PaxosLog()
        log.mark_chosen(0, "applied")
        log.mark_chosen(1, "chosen-unapplied")
        entry = log.entry(2)
        entry.accepted_ballot = (1, "n0")
        entry.accepted_value = "accepted"
        assert log.pending_values(1) == ["chosen-unapplied", "accepted"]
        assert log.pending_values(2) == ["accepted"]
        assert log.pending_values(3) == []


# ---------------------------------------------------------------------------
# Serve-or-bounce at the group/DHT layer
# ---------------------------------------------------------------------------
def _deploy(seed, *, follower_reads, read_routing, n_clients=6):
    paxos = PaxosConfig(
        heartbeat_interval=0.15,
        election_timeout=0.7,
        lease_duration=0.5,
        retry_interval=0.4,
        compact_threshold=400,
        follower_reads=follower_reads,
    )
    params = DeploymentParams(n_nodes=6, n_groups=2, n_clients=n_clients, seed=seed)
    return build_scatter_deployment(
        params,
        config=experiment_scatter_config(paxos=paxos),
        client_config=ClientConfig(read_routing=read_routing),
    )


class TestServing:
    def run_workload(self, read_routing, read_fraction=0.7, seed=5):
        with tracing(Tracer()) as tracer:
            deployment = _deploy(
                seed, follower_reads=True, read_routing=read_routing
            )
            workload = ClosedLoopWorkload(
                deployment.sim,
                deployment.clients,
                UniformKeys(10),
                read_fraction=read_fraction,
            )
            workload.start()
            deployment.sim.run_for(8.0)
            workload.stop()
            deployment.sim.run_for(1.0)
        return tracer.metrics.counters, workload.all_records()

    def test_round_robin_serves_at_followers_and_linearizes(self):
        counters, records = self.run_workload("round_robin")
        assert counters.get("reads.follower", 0) > 0
        assert counters.get("reads.leader", 0) > 0
        # Contended keys bounce (conflict window) rather than serve stale.
        assert counters.get("reads.bounced", 0) > 0
        result = check_history(records)
        assert result.ok, result.violations

    def test_nearest_routing_serves_and_linearizes(self):
        counters, records = self.run_workload("nearest")
        assert counters.get("reads.follower", 0) > 0
        result = check_history(records)
        assert result.ok, result.violations

    def test_leader_routing_with_knob_off_never_emits_read_counters(self):
        with tracing(Tracer()) as tracer:
            deployment = _deploy(6, follower_reads=False, read_routing="leader")
            workload = ClosedLoopWorkload(
                deployment.sim, deployment.clients, UniformKeys(10), read_fraction=0.7
            )
            workload.start()
            deployment.sim.run_for(5.0)
            workload.stop()
            deployment.sim.run_for(1.0)
        counters = tracer.metrics.counters
        assert counters.get("reads.follower", 0) == 0
        assert counters.get("reads.bounced", 0) == 0
        assert counters.get("reads.leader", 0) > 0


class TestClientConfigValidation:
    def test_bad_read_routing_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(read_routing="random")


# ---------------------------------------------------------------------------
# Zero perturbation: follower_reads=False == seed behavior
# ---------------------------------------------------------------------------
def _drive(seed, *, follower_reads=False, read_routing="leader"):
    paxos = PaxosConfig(
        heartbeat_interval=0.15,
        election_timeout=0.7,
        lease_duration=0.5,
        retry_interval=0.4,
        compact_threshold=400,
        follower_reads=follower_reads,
    )
    config = experiment_scatter_config(paxos=paxos)
    params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(
        params, config=config, client_config=ClientConfig(read_routing=read_routing)
    )
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


class TestZeroPerturbation:
    def test_off_is_byte_identical_around_an_enabled_run(self):
        fp_a = _drive(seed=11)
        fp_on = _drive(seed=11, follower_reads=True, read_routing="round_robin")
        fp_b = _drive(seed=11)
        assert fp_a == fp_b
        assert fp_on != fp_a

    def test_enabled_runs_are_deterministic(self):
        kwargs = dict(follower_reads=True, read_routing="round_robin")
        assert _drive(seed=11, **kwargs) == _drive(seed=11, **kwargs)


# ---------------------------------------------------------------------------
# Fuzzer integration
# ---------------------------------------------------------------------------
class TestFuzzKnobs:
    def test_sampled_plans_randomize_follower_reads(self):
        from repro.check import sample_plan

        plans = [sample_plan(7, i) for i in range(24)]
        assert any(p.follower_reads for p in plans)
        assert any(not p.follower_reads for p in plans)

    def test_plan_roundtrip_preserves_the_knob(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        plan = next(p for p in (sample_plan(7, i) for i in range(24)) if p.follower_reads)
        assert plan_to_dict(plan)["follower_reads"] is True
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_old_repro_files_deserialize_to_off(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        data = plan_to_dict(sample_plan(7, 3))
        data.pop("follower_reads")
        assert plan_from_dict(data).follower_reads is False

    def test_follower_read_plans_run_clean_under_faults(self):
        # Linearizability under partitions and leader churn: force the
        # knob on for sampled plans whose schedules contain partitions
        # and crashes (leader crashes trigger elections mid-workload).
        from repro.check import run_plan, sample_plan

        churny = [
            replace(sample_plan(1, i), follower_reads=True)
            for i in range(8)
            if {e.kind for e in sample_plan(1, i).schedule} & {"partition", "crash"}
        ][:3]
        assert churny, "expected fault-bearing plans among the first eight"
        for plan in churny:
            outcome = run_plan(plan)
            assert not outcome.failed, outcome.failure
            assert outcome.ops_completed > 0

    def test_stale_follower_read_canary_found(self):
        from repro.check import run_plan, sample_plan

        plan = sample_plan(11, 1)
        assert plan.follower_reads  # the canary seed samples the knob on
        outcome = run_plan(plan, bug="stale-follower-read")
        assert outcome.failed
        assert outcome.failure.kind == "linearizability"

    def test_canary_is_harmless_with_the_knob_off(self):
        # The patched conflict check is never consulted when no follower
        # serves reads: the same plan with follower_reads off runs clean.
        from repro.check import run_plan, sample_plan

        plan = replace(sample_plan(11, 1), follower_reads=False)
        outcome = run_plan(plan, bug="stale-follower-read")
        assert not outcome.failed, outcome.failure
