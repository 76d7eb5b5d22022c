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
from hypothesis import given, settings, strategies as st

from repro.analysis.linearizability import check_history
from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster, current_leader
from repro.consensus.log import LogEntry, PaxosLog
from repro.consensus.replica import PaxosConfig
from repro.dht.client import ClientConfig, ScatterClient
from repro.dht.messages import ClientOpReq, ClientOpResp
from repro.dht import scatter as scatter_module
from repro.dht.ring import KEY_SPACE, KeyRange
from repro.group.info import GroupInfo
from repro.harness.builders import (
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.net.futures import Future
from repro.net.node import Node
from repro.obs import Tracer, tracing
from repro.obs.spans import GROUP_FOLLOWER_READ
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.latency import ConstantLatency
from repro.store.kvstore import OP_GET, OP_PUT, KvOp, KvResult
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
        assert cut.replica.follower_read_refusal("k") == "grant"
        assert followers[1].replica.follower_read_allowed("k")

    def test_accepted_but_unapplied_entry_blocks_reads(self):
        # An Accept the follower has logged above its applied prefix is a
        # write that may already be acknowledged elsewhere (quorum
        # expansion made sure this follower saw it first) — reads must
        # bounce until it applies.  With no write classifier installed
        # (raw consensus cluster) it is conservatively a wildcard write.
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        _leader, followers = split_roles(hosts)
        replica = followers[0].replica
        assert replica.follower_read_refusal("k") is None
        entry = replica.log.entry(replica.applied_index + 1)
        entry.accepted_ballot = (1, "n0")
        entry.accepted_value = Command.app("w")
        assert replica.follower_read_refusal("k") == "window"

    def test_caught_up_entry_above_a_hole_blocks_its_key_only(self):
        # An entry learned through catch-up is chosen but was never
        # accepted here (accepted_ballot is None).  Sitting above a hole
        # it cannot apply yet, so it is in the window: its key bounces,
        # the hole is skipped, and another key is still served.
        sim, net, hosts = make_cluster(PaxosConfig(follower_reads=True, **FAST))
        _leader, followers = split_roles(hosts)
        replica = followers[0].replica
        replica.write_keys_fn = lambda cmd: (frozenset((cmd.payload,)), False)
        slot = replica.applied_index + 2
        replica.log.mark_chosen(slot, Command.app("k"))
        entry = replica.log.get(slot)
        assert entry.chosen and entry.accepted_ballot is None
        assert replica.log.get(slot - 1) is None
        assert replica.applied_index == slot - 2
        assert replica.follower_read_refusal("k") == "window"
        assert replica.follower_read_refusal("other") is None

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


class _SortedScanLog(PaxosLog):
    """The scans as they were before the log tracked its top slot: sort
    or filter every retained key.  Kept here only, as the oracle."""

    def entry(self, slot):
        if slot < self.first_slot:
            raise KeyError(slot)
        if slot not in self._entries:
            self._entries[slot] = LogEntry()
        return self._entries[slot]

    def _drop_below(self, slot):
        for s in [s for s in self._entries if s < slot]:
            del self._entries[s]
        self.first_slot = max(self.first_slot, slot)
        self.commit_index = max(self.commit_index, self.first_slot - 1)
        while self.is_chosen(self.commit_index + 1):
            self.commit_index += 1

    @property
    def max_slot(self):
        return max(self._entries, default=-1)

    def accepted_from(self, from_slot):
        out = []
        for slot in sorted(self._entries):
            if slot < from_slot:
                continue
            e = self._entries[slot]
            if e.accepted_ballot is not None:
                out.append((slot, e.accepted_ballot, e.accepted_value))
        return out

    def pending_values(self, from_slot):
        out = []
        for slot in sorted(self._entries):
            if slot < from_slot:
                continue
            e = self._entries[slot]
            if e.chosen or e.accepted_ballot is not None:
                out.append(e.accepted_value)
        return out


_LOG_OPS = st.lists(
    st.tuples(
        st.sampled_from(["entry", "accept", "choose", "truncate", "reset"]),
        st.integers(min_value=0, max_value=24),
    ),
    max_size=60,
)


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

    @settings(max_examples=200, deadline=None)
    @given(_LOG_OPS)
    def test_range_walks_match_the_sorted_scans(self, ops):
        # Random entry / accept / mark_chosen / truncate_before /
        # reset_to sequences, holes included (a bare ``entry`` leaves an
        # empty slot; slots are touched in any order).  After every step
        # the log agrees with the sorted-scan oracle on every scan, from
        # every starting slot, and on what it retains.
        log, oracle = PaxosLog(), _SortedScanLog()
        for op, slot in ops:
            outcomes = []
            for target in (log, oracle):
                try:
                    if op == "entry":
                        target.entry(slot)
                    elif op == "accept":
                        e = target.entry(slot)
                        e.accepted_ballot, e.accepted_value = (1, "n0"), ("v", slot)
                    elif op == "choose":
                        target.mark_chosen(slot, ("v", slot))
                    elif op == "truncate":
                        target.truncate_before(slot)
                    else:
                        target.reset_to(slot)
                    outcomes.append(None)
                except (KeyError, ValueError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            assert sorted(log._entries) == sorted(oracle._entries)
            assert (log.first_slot, log.commit_index) == (
                oracle.first_slot,
                oracle.commit_index,
            )
            assert log.max_slot == oracle.max_slot
            for from_slot in range(0, 27):
                assert log.pending_values(from_slot) == oracle.pending_values(from_slot)
                assert log.accepted_from(from_slot) == oracle.accepted_from(from_slot)


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
        # Contended keys bounce (conflict window) rather than serve stale,
        # and every bounce is counted under the condition that failed.
        assert counters.get("reads.bounced.window", 0) > 0
        assert counters["reads.bounced"] == sum(
            counters.get(f"reads.bounced.{reason}", 0)
            for reason in ("grant", "frontier", "window")
        )
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


    def test_follower_serves_key_of_a_write_queued_at_the_leader(self):
        # The leader holds a Put of k in its batch buffer for several
        # heartbeats without broadcasting it.  Nothing about that write
        # is in any follower's log, so safety does not need a bounce:
        # the write cannot be acknowledged before these followers
        # accept it (quorum expansion).  Followers serve the old value.
        paxos = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.9,
            lease_duration=0.7,
            retry_interval=0.4,
            follower_reads=True,
            batch_max=16,
            batch_window=0.35,  # under the client's 0.5 s rpc_timeout
        )
        with tracing(Tracer()) as tracer:
            deployment = build_scatter_deployment(
                DeploymentParams(n_nodes=3, n_groups=1, n_clients=1, seed=3),
                config=experiment_scatter_config(paxos=paxos),
                client_config=ClientConfig(read_routing="round_robin"),
            )
            sim, client = deployment.sim, deployment.clients[0]
            first = client.put("k", 1)
            sim.run_for(2.0)
            assert first.result().ok
            (gid,) = deployment.system.active_groups()
            leader = deployment.system.leader_of(gid)
            second = client.put("k", 2)
            sim.run_for(0.25)  # two granting heartbeats into the window
            assert leader.paxos._batch_buffer and not second.done
            counters = tracer.metrics.counters
            served = counters.get("reads.follower", 0)
            # Two Puts are owed, so one rotation passes over the leader.
            gets = [client.get("k") for _ in range(2)]
            sim.run_for(0.1)
            assert [g.result().value for g in gets] == [1, 1]
            assert counters.get("reads.follower", 0) == served + 2
            assert counters.get("reads.bounced", 0) == 0
            sim.run_for(2.0)
            assert second.result().ok
            last = client.get("k")
            sim.run_for(1.0)
            assert last.result().value == 2
        result = check_history(client.records)
        assert result.ok, result.violations


# ---------------------------------------------------------------------------
# An answer known on the spot is a value; only a log op is a Future
# ---------------------------------------------------------------------------
class TestSynchronousAnswers:
    KEY = 7

    def rig(self, op_service_time=0.0):
        paxos = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.9,
            lease_duration=0.7,
            retry_interval=0.4,
            follower_reads=True,
        )
        deployment = build_scatter_deployment(
            DeploymentParams(n_nodes=3, n_groups=1, n_clients=0, seed=4),
            config=experiment_scatter_config(
                paxos=paxos, op_service_time=op_service_time
            ),
        )
        sim, system = deployment.sim, deployment.system
        (gid,) = system.active_groups()
        leader = system.leader_of(gid)
        follower = next(
            node.groups[gid]
            for node in system.nodes.values()
            if node.groups[gid] is not leader
        )
        probe = Node("probe", sim, deployment.net)
        return sim, probe, leader, follower

    def ask(self, sim, probe, replica, op):
        reply = probe.request(replica.host.node_id, ClientOpReq(op=op), timeout=1.0)
        sim.run_for(0.2)
        return reply.result()

    @pytest.mark.parametrize("op_service_time", [0.0, 0.002])
    def test_reads_and_writes_reach_the_client_as_before(
        self, op_service_time, monkeypatch
    ):
        mapped = []
        real_map = scatter_module._map_future
        monkeypatch.setattr(
            scatter_module,
            "_map_future",
            lambda source, fn: mapped.append(source) or real_map(source, fn),
        )
        with tracing(Tracer()) as tracer:
            sim, probe, leader, follower = self.rig(op_service_time)
            counters = tracer.metrics.counters
            put = self.ask(sim, probe, leader, KvOp(OP_PUT, self.KEY, "v"))
            assert put == ClientOpResp(status="ok", result=KvResult(ok=True, version=1))
            assert len(mapped) == 1  # the Put waited on the log
            sim.run_for(0.3)  # the follower applies it and holds a fresh grant

            expected = ClientOpResp(
                status="ok", result=KvResult(ok=True, value="v", version=1)
            )
            assert self.ask(sim, probe, leader, KvOp(OP_GET, self.KEY)) == expected
            assert counters["group.lease_reads"] == 1
            assert counters.get("reads.follower", 0) == 0
            assert self.ask(sim, probe, follower, KvOp(OP_GET, self.KEY)) == expected
            assert counters["reads.follower"] == 1
            assert counters["group.lease_reads"] == 1
            (span,) = tracer.spans_of(GROUP_FOLLOWER_READ)
            assert span.attrs["outcome"] == "served" and span.attrs["key"] == self.KEY
            missing = self.ask(sim, probe, follower, KvOp(OP_GET, self.KEY + 1))
            assert missing == ClientOpResp(
                status="ok", result=KvResult(ok=False, error="not_found")
            )
            assert len(mapped) == 1  # no read built a Future chain
            assert counters["group.log_ops"] == 1

    def test_only_an_op_that_waits_on_the_log_is_a_future(self):
        with tracing(Tracer()) as tracer:
            sim, probe, leader, follower = self.rig()
            counters = tracer.metrics.counters
            get = KvOp(OP_GET, self.KEY)
            assert leader.client_op(get) == KvResult(ok=False, error="not_found")
            assert follower.follower_read(get) == KvResult(ok=False, error="not_found")
            put = leader.client_op(KvOp(OP_PUT, self.KEY, "v"), ("c", 1, 1))
            assert isinstance(put, Future) and not put.done
            sim.run_for(0.2)
            assert put.result() == KvResult(ok=True, version=1)
            # A leader whose lease has lapsed must not answer from its
            # store: the Get goes through the log like a write.
            leader.paxos._lease_until = sim.now
            assert not leader.paxos.lease_active
            logged = counters["group.log_ops"]
            slow = leader.client_op(get)
            assert isinstance(slow, Future) and not slow.done
            assert counters["group.log_ops"] == logged + 1
            assert counters.get("group.lease_reads", 0) == 1
            sim.run_for(0.2)
            assert slow.result() == KvResult(ok=True, value="v", version=1)
            resp = self.ask(sim, probe, leader, get)
            assert resp == ClientOpResp(status="ok", result=slow.result())


# ---------------------------------------------------------------------------
# Work-conserving read rotation (client side)
# ---------------------------------------------------------------------------
class _Member(Node):
    """Stub group member: counts client ops and answers like a replica.

    The leader serves everything; a follower serves Gets, except every
    ``bounce_every``-th one, which it bounces ``not_leader``.
    """

    def __init__(self, node_id, sim, net, leader, bounce_every=0):
        super().__init__(node_id, sim, net)
        self.leader = leader
        self.bounce_every = bounce_every
        self.ops = 0
        self.on(ClientOpReq, self._serve)

    def _serve(self, src, msg):
        self.ops += 1
        if self.node_id != self.leader:
            assert msg.op.op == OP_GET, "a write was sent to a follower"
            if self.bounce_every and self.ops % self.bounce_every == 0:
                return ClientOpResp(status="not_leader", leader_hint=self.leader)
        return ClientOpResp(status="ok", result=KvResult(ok=True))


def _rotation_rig(groups, *, bounce_every=0):
    """A round-robin client over stub groups ``{gid: (n, leader_index)}``.

    ``leader_index`` None leaves the leader hint pointing at a node
    outside the group (unknown leader).  The groups tile the ring.
    """
    sim = Simulator(seed=0)
    net = SimNetwork(sim, latency=ConstantLatency(0.001))
    client = ScatterClient(
        "c0", sim, net, lambda: [], ClientConfig(read_routing="round_robin")
    )
    members, keys = {}, {}
    arc = KEY_SPACE // len(groups)
    for i, (gid, (n, leader_index)) in enumerate(groups.items()):
        ids = tuple(f"{gid}-m{j}" for j in range(n))
        leader = ids[leader_index] if leader_index is not None else f"{gid}-gone"
        members[gid] = [_Member(m, sim, net, leader, bounce_every) for m in ids]
        lo = i * arc
        client._learn(GroupInfo(gid, KeyRange(lo, (lo + arc) % KEY_SPACE), ids, leader))
        keys[gid] = lo + 1
    return sim, client, members, keys


def _issue(sim, client, key, read):
    future = client.get(key) if read else client.put(key, 0)
    sim.run_for(0.1)
    assert future.result().ok


class TestRotationBalance:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("writes_per_ten", [0, 1, 5])
    @pytest.mark.parametrize("bounce_every", [0, 25])
    def test_leader_total_tracks_each_followers_reads(
        self, n, writes_per_ten, bounce_every
    ):
        sim, client, members, keys = _rotation_rig(
            {"g": (n, 1)}, bounce_every=bounce_every
        )
        for i in range(40 * n):
            _issue(sim, client, keys["g"], read=i % 10 >= writes_per_ten)
        leader, followers = members["g"][1], members["g"][:1] + members["g"][2:]
        counts = [f.ops for f in followers]
        assert max(counts) - min(counts) <= 1
        # Writes and bounced Gets land on the leader whatever the
        # rotation does.  Where reads suffice to even that out, the
        # leader's total is each follower's read count; where they do
        # not, the leader is sent no read at all.
        outside = 4 * n * writes_per_ten + sum(
            f.ops // bounce_every for f in followers if bounce_every
        )
        assert abs(leader.ops - max(outside, max(counts))) <= 1

    def test_two_groups_keep_separate_counts(self):
        sim, client, members, keys = _rotation_rig({"a": (3, 0), "b": (3, 0)})
        for _ in range(3):
            _issue(sim, client, keys["a"], read=False)
        for _ in range(9):
            _issue(sim, client, keys["a"], read=True)
            _issue(sim, client, keys["b"], read=True)
        # Group a's three writes excuse its leader from three reads;
        # group b never wrote, so its rotation stays uniform.
        assert [m.ops for m in members["a"]] == [4, 4, 4]
        assert [m.ops for m in members["b"]] == [3, 3, 3]

    def test_a_write_burst_excuses_the_leader_for_one_pass_per_member(self):
        # The count is capped at the group size, so after a long run of
        # writes the leader is back in the rotation within n passes
        # instead of sitting idle while two followers carry every read.
        sim, client, members, keys = _rotation_rig({"g": (3, 0)})
        for _ in range(30):
            _issue(sim, client, keys["g"], read=False)
        for _ in range(6):
            _issue(sim, client, keys["g"], read=True)
        assert [m.ops for m in members["g"]] == [30, 3, 3]
        for _ in range(6):
            _issue(sim, client, keys["g"], read=True)
        assert [m.ops for m in members["g"]] == [32, 5, 5]

    @pytest.mark.parametrize("shape", [(3, None), (1, 0)])
    def test_plain_rotation_without_a_usable_leader_hint(self, shape):
        # Leader unknown (hint names no member) or the only member:
        # nothing to pass over, every member takes its turn.
        n, _leader_index = shape
        sim, client, members, keys = _rotation_rig({"g": shape})
        info = client.cache["g"]
        for _ in range(4):
            client._owe_leader(info)
        targets = [client._read_target(info) for _ in range(4 * n)]
        assert set(targets) == set(info.members)
        assert all(targets.count(m) == 4 for m in info.members)


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
