"""End-to-end tests of the multi-group transactions (split/merge/etc.)."""

import pytest

from repro.dht.client import ScatterClient
from repro.dht.messages import ClientOpReq
from repro.dht.ring import KEY_SPACE, hash_key
from repro.dht.system import ScatterSystem
from repro.group.replica import GroupStatus
from repro.policies import ScatterPolicy
from repro.sim import ConstantLatency, SimNetwork, Simulator
from repro.store.kvstore import OP_GET, KvOp

from test_scatter_basic import fast_config, make_client

# Policy that never fires on its own: ops are triggered manually.
MANUAL = ScatterPolicy(target_size=5, split_size=999, merge_size=0)


def build_manual(n_nodes, n_groups, seed=2):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.004))
    system = ScatterSystem.build(
        sim, net, n_nodes=n_nodes, n_groups=n_groups, config=fast_config(), policy=MANUAL
    )
    sim.run_for(2.0)
    return sim, net, system


def seed_data(sim, net, system, n=30):
    client = make_client(sim, net, system)
    for i in range(n):
        client.put(f"key-{i}", i)
    sim.run_for(6.0)
    assert all(r.ok for r in (f.result() for f in []) ) or True
    return client


def all_data_reachable(sim, net, system, client, n=30):
    futures = [client.get(f"key-{i}") for i in range(n)]
    sim.run_for(10.0)
    return [i for i, f in enumerate(futures) if not (f.done and f.exception is None and f.result().ok and f.result().value == i)]


class TestSplit:
    def test_split_creates_two_groups(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=1)
        gid, replica = next(iter(system.active_groups().items()))
        leader = system.leader_of(gid)
        fut = leader.host.start_split(leader)
        sim.run_for(8.0)
        assert fut.result() == "committed"
        groups = system.active_groups()
        assert len(groups) == 2
        assert system.ring_is_consistent()
        sizes = sorted(len(g.members) for g in groups.values())
        assert sizes == [3, 3]

    def test_split_preserves_data(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=1)
        client = seed_data(sim, net, system)
        before = system.total_keys()
        gid = next(iter(system.active_groups()))
        leader = system.leader_of(gid)
        fut = leader.host.start_split(leader)
        sim.run_for(8.0)
        assert fut.result() == "committed"
        assert system.total_keys() == before
        assert all_data_reachable(sim, net, system, client) == []

    def test_split_updates_neighbor_pointers(self):
        sim, net, system = build_manual(n_nodes=9, n_groups=3)
        gid = "g1"
        leader = system.leader_of(gid)
        fut = leader.host.start_split(leader)
        sim.run_for(8.0)
        assert fut.result() == "committed"
        groups = system.active_groups()
        assert len(groups) == 4
        assert system.ring_is_consistent()
        # Neighbors' pointers reference the new halves, not g1.
        for g in groups.values():
            if g.predecessor is not None:
                assert g.predecessor.gid != gid
            if g.successor is not None:
                assert g.successor.gid != gid

    def test_key_held_only_by_retired_replica_redirects(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=1)
        gid, _ = next(iter(system.active_groups().items()))
        leader = system.leader_of(gid)
        fut = leader.host.start_split(leader)
        sim.run_for(8.0)
        assert fut.result() == "committed"
        # A node of one half still hosts the retired whole-ring group,
        # which contains every key of the other half.
        halves = list(system.active_groups().values())
        node = system.nodes[halves[0].members[0]]
        assert node.groups[gid].status is GroupStatus.RETIRED
        key = halves[1].range.lo
        assert not halves[0].range.contains(key)
        resp = node._serve_client_op_now("c0", ClientOpReq(op=KvOp(OP_GET, key)))
        assert resp.status == "redirect"
        served = {g.gid for g in resp.groups}
        assert halves[1].gid in served and gid not in served

    def test_split_of_ring_of_one_links_halves(self):
        sim, net, system = build_manual(n_nodes=4, n_groups=1)
        gid = next(iter(system.active_groups()))
        leader = system.leader_of(gid)
        leader.host.start_split(leader)
        sim.run_for(8.0)
        groups = system.active_groups()
        assert len(groups) == 2
        a, b = groups.values()
        assert a.successor.gid == b.gid and a.predecessor.gid == b.gid
        assert b.successor.gid == a.gid and b.predecessor.gid == a.gid

    def test_policy_driven_split_fires(self):
        sim = Simulator(seed=5)
        net = SimNetwork(sim, latency=ConstantLatency(0.004))
        policy = ScatterPolicy(target_size=3, split_size=6, merge_size=1)
        system = ScatterSystem.build(
            sim, net, n_nodes=8, n_groups=1, config=fast_config(), policy=policy
        )
        sim.run_for(20.0)
        assert system.group_count() >= 2
        assert system.ring_is_consistent()


class TestMerge:
    def test_merge_two_groups(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=2)
        gid = "g0"
        leader = system.leader_of(gid)
        fut = leader.host.start_merge(leader)
        sim.run_for(10.0)
        assert fut.result() == "committed"
        groups = system.active_groups()
        assert len(groups) == 1
        merged = next(iter(groups.values()))
        assert merged.range.is_full
        assert len(merged.members) == 6
        assert system.ring_is_consistent()

    def test_merge_preserves_data(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=2)
        client = seed_data(sim, net, system)
        before = system.total_keys()
        leader = system.leader_of("g0")
        fut = leader.host.start_merge(leader)
        sim.run_for(10.0)
        assert fut.result() == "committed"
        assert system.total_keys() == before
        assert all_data_reachable(sim, net, system, client) == []

    def test_merge_in_larger_ring_updates_outer_pointers(self):
        sim, net, system = build_manual(n_nodes=12, n_groups=4)
        leader = system.leader_of("g1")
        fut = leader.host.start_merge(leader)  # merges g1 + g2
        sim.run_for(10.0)
        assert fut.result() == "committed"
        groups = system.active_groups()
        assert len(groups) == 3
        assert system.ring_is_consistent()
        merged_gid = next(g for g in groups if g not in ("g0", "g3"))
        assert groups["g0"].successor.gid == merged_gid
        assert groups["g3"].predecessor.gid == merged_gid

    def test_policy_driven_merge_fires(self):
        sim = Simulator(seed=6)
        net = SimNetwork(sim, latency=ConstantLatency(0.004))
        policy = ScatterPolicy(target_size=4, split_size=12, merge_size=3)
        system = ScatterSystem.build(
            sim, net, n_nodes=6, n_groups=2, config=fast_config(), policy=policy
        )
        sim.run_for(25.0)
        assert system.group_count() == 1


class TestMigrate:
    def test_migrate_moves_member(self):
        sim, net, system = build_manual(n_nodes=7, n_groups=2)
        groups = system.active_groups()
        from_leader = system.leader_of("g0")
        to_info = system.active_groups()["g1"].info()
        mover = [m for m in from_leader.members if m != from_leader.paxos.replica_id][0]
        fut = from_leader.host.start_migrate(from_leader, mover, to_info)
        sim.run_for(15.0)
        assert fut.result() == "committed"
        g0 = system.leader_of("g0")
        g1 = system.leader_of("g1")
        assert mover not in g0.members
        assert mover in g1.members
        # The moved node hosts the new group's replica.
        assert "g1" in system.nodes[mover].groups

    def test_migrated_node_serves_new_group(self):
        sim, net, system = build_manual(n_nodes=7, n_groups=2)
        client = seed_data(sim, net, system)
        from_leader = system.leader_of("g0")
        to_info = system.active_groups()["g1"].info()
        mover = [m for m in from_leader.members if m != from_leader.paxos.replica_id][0]
        from_leader.host.start_migrate(from_leader, mover, to_info)
        sim.run_for(15.0)
        replica = system.nodes[mover].groups.get("g1")
        assert replica is not None
        sim.run_for(5.0)
        leader = system.leader_of("g1")
        for key in leader.owned_keys():
            assert replica.store.get(key).ok


class TestRepartition:
    def test_boundary_moves_and_data_follows(self):
        sim, net, system = build_manual(n_nodes=6, n_groups=2)
        client = seed_data(sim, net, system)
        g0 = system.leader_of("g0")
        old_hi = g0.range.hi
        new_boundary = old_hi - (g0.range.size() // 4)
        moving_keys = g0.owned_keys()
        fut = g0.host.start_repartition(g0, new_boundary)
        sim.run_for(10.0)
        assert fut.result() == "committed"
        g0 = system.leader_of("g0")
        g1 = system.leader_of("g1")
        assert g0.range.hi == new_boundary
        assert g1.range.lo == new_boundary
        assert system.ring_is_consistent()
        assert all_data_reachable(sim, net, system, client) == []

    def test_repartition_toward_successor(self):
        # Boundary inside the successor's range: successor donates keys.
        sim, net, system = build_manual(n_nodes=6, n_groups=2)
        client = seed_data(sim, net, system)
        g0 = system.leader_of("g0")
        g1 = system.leader_of("g1")
        new_boundary = g1.range.lo + g1.range.size() // 4
        fut = g0.host.start_repartition(g0, new_boundary)
        sim.run_for(10.0)
        assert fut.result() == "committed"
        g0 = system.leader_of("g0")
        g1 = system.leader_of("g1")
        assert g0.range.hi == new_boundary
        assert g1.range.lo == new_boundary
        assert all_data_reachable(sim, net, system, client) == []


class TestTxnConflicts:
    def test_concurrent_conflicting_merges_resolve_cleanly(self):
        sim, net, system = build_manual(n_nodes=9, n_groups=3)
        l0 = system.leader_of("g0")
        l1 = system.leader_of("g1")
        # g0 merges with g1 while g1 tries to merge with g2.  The common
        # participant can only prepare for one; depending on arrival
        # order one commits, or both abort (mutual refusal).  Either way
        # every lock is released and the ring stays consistent.
        f0 = l0.host.start_merge(l0)
        f1 = l1.host.start_merge(l1)
        sim.run_for(15.0)
        assert f0.done and f1.done
        outcomes = [f.result() if f.exception is None else "error" for f in (f0, f1)]
        assert outcomes.count("committed") <= 1
        for g in system.active_groups().values():
            assert g.active_txn is None
        assert system.ring_is_consistent()
        # A retry after the dust settles succeeds.
        leader = system.leader_of(sorted(system.active_groups())[0])
        f2 = leader.host.start_merge(leader)
        sim.run_for(15.0)
        assert f2.exception is None and f2.result() == "committed"

    def test_operations_resume_after_abort(self):
        sim, net, system = build_manual(n_nodes=9, n_groups=3)
        client = seed_data(sim, net, system, n=10)
        l0 = system.leader_of("g0")
        l1 = system.leader_of("g1")
        l0.host.start_merge(l0)
        l1.host.start_merge(l1)
        sim.run_for(20.0)
        assert all_data_reachable(sim, net, system, client, n=10) == []


class TestNonBlocking:
    def test_coordinator_leader_death_does_not_block_participants(self):
        """The signature claim: 2PC over Paxos groups is non-blocking."""
        sim, net, system = build_manual(n_nodes=9, n_groups=3)
        l1 = system.leader_of("g1")
        coordinator_node = l1.paxos.replica_id
        l1.host.start_merge(l1)
        # Kill the coordinating leader shortly after it starts driving.
        sim.run_for(0.3)
        system.kill_node(coordinator_node)
        sim.run_for(40.0)
        # No group stays frozen: the txn committed or aborted everywhere.
        for gid, g in system.active_groups().items():
            assert g.status is not GroupStatus.FROZEN, f"{gid} still frozen"
            assert g.active_txn is None, f"{gid} still locked"
        assert system.ring_is_consistent()
