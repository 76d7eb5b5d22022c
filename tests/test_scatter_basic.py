"""End-to-end tests of the Scatter overlay: routing, storage, joins."""

import pytest

from repro.consensus import PaxosConfig
from repro.dht.client import ClientConfig, ScatterClient
from repro.dht.ring import hash_key
from repro.dht.scatter import ScatterConfig
from repro.dht.system import ScatterSystem
from repro.policies import ScatterPolicy
from repro.sim import LogNormalLatency, SimNetwork, Simulator

FAST_PAXOS = PaxosConfig(
    heartbeat_interval=0.1,
    election_timeout=0.6,
    lease_duration=0.4,
    retry_interval=0.3,
)


def fast_config(**overrides):
    defaults = dict(
        paxos=FAST_PAXOS,
        maintenance_interval=0.5,
        dead_timeout=1.5,
        txn_rpc_timeout=1.0,
        txn_recovery_timeout=4.0,
        txn_cooldown=1.5,
        gossip_interval=2.0,
        retired_linger=20.0,
        join_retry=0.5,
    )
    defaults.update(overrides)
    return ScatterConfig(**defaults)


def build(n_nodes=9, n_groups=3, seed=1, policy=None, config=None):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=LogNormalLatency(0.003, 0.3))
    policy = policy or ScatterPolicy(target_size=3, split_size=6, merge_size=2)
    system = ScatterSystem.build(
        sim, net, n_nodes=n_nodes, n_groups=n_groups,
        config=config or fast_config(), policy=policy,
    )
    sim.run_for(2.0)  # leaders elect, leases establish
    return sim, net, system


def make_client(sim, net, system, name="c0"):
    return ScatterClient(name, sim, net, seed_provider=system.alive_node_ids)


class TestBootstrap:
    def test_groups_cover_ring(self):
        sim, net, system = build()
        assert system.group_count() == 3
        assert system.ring_is_consistent()

    def test_every_group_has_leader(self):
        sim, net, system = build()
        for gid in system.active_groups():
            assert system.leader_of(gid) is not None

    def test_nodes_split_across_groups(self):
        sim, net, system = build(n_nodes=9, n_groups=3)
        sizes = [len(g.members) for g in system.active_groups().values()]
        assert sizes == [3, 3, 3]


class TestClientOps:
    def test_put_then_get(self):
        sim, net, system = build()
        client = make_client(sim, net, system)
        f = client.put("hello", "world")
        sim.run_for(3.0)
        assert f.result().ok
        g = client.get("hello")
        sim.run_for(3.0)
        assert g.result().ok
        assert g.result().value == "world"

    def test_get_missing_key(self):
        sim, net, system = build()
        client = make_client(sim, net, system)
        f = client.get("never-written")
        sim.run_for(3.0)
        assert not f.result().ok
        assert f.result().error == "not_found"

    def test_many_keys_route_to_right_groups(self):
        sim, net, system = build()
        client = make_client(sim, net, system)
        futures = {}
        for i in range(40):
            futures[f"key-{i}"] = client.put(f"key-{i}", i)
        sim.run_for(8.0)
        for name, f in futures.items():
            assert f.result().ok, f"{name} failed: {f.result()}"
        # Data landed in the group owning each key.
        groups = system.active_groups()
        for i in range(40):
            key = hash_key(f"key-{i}")
            owners = [g for g in groups.values() if g.range.contains(key)]
            assert len(owners) == 1
            assert owners[0].store.get(key).value == i

    def test_delete_and_cas(self):
        sim, net, system = build()
        client = make_client(sim, net, system)
        client.put("k", "v1")
        sim.run_for(2.0)
        f = client.cas("k", "v2", expected_version=1)
        sim.run_for(2.0)
        assert f.result().ok
        f2 = client.cas("k", "v3", expected_version=1)
        sim.run_for(2.0)
        assert not f2.result().ok and f2.result().error == "conflict"
        f3 = client.delete("k")
        sim.run_for(2.0)
        assert f3.result().ok

    def test_two_clients_see_each_others_writes(self):
        sim, net, system = build()
        c1 = make_client(sim, net, system, "c1")
        c2 = make_client(sim, net, system, "c2")
        c1.put("shared", "from-c1")
        sim.run_for(3.0)
        f = c2.get("shared")
        sim.run_for(3.0)
        assert f.result().value == "from-c1"


class TestClientDeadline:
    def test_no_op_resolves_later_than_deadline_plus_one_rpc(self):
        # A client cut off from every node can only time out.  Its
        # backoff pauses grow toward retry_cap (1.5 s); none may carry an
        # op past its deadline, so the last thing an op can wait for is
        # one RPC sent just before it.
        sim, net, system = build()
        client = make_client(sim, net, system)
        client.put("warm", 0)  # fill the cache: ops start at a known leader
        sim.run_for(2.0)
        net.partition({client.node_id}, set(system.nodes))
        futures = []
        for i in range(12):
            futures.append(client.put(f"k{i}", i))
            sim.run_for(0.37)
        sim.run_for(12.0)
        config = client.config
        for record in client.records[1:]:
            assert record.result.error == "timeout"
            assert record.latency <= config.op_timeout + config.rpc_timeout
        assert all(f.done for f in futures)


class TestJoin:
    def test_new_node_joins_a_group(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        node = system.add_node()
        sim.run_for(10.0)
        assert len(node.groups) == 1
        gid = next(iter(node.groups))
        assert node.node_id in node.groups[gid].paxos.members

    def test_join_targets_smallest_group(self):
        sim, net, system = build(n_nodes=7, n_groups=2)  # sizes 4 and 3
        sizes_before = {g.gid: len(g.members) for g in system.active_groups().values()}
        small_gid = min(sizes_before, key=sizes_before.get)
        node = system.add_node()
        sim.run_for(10.0)
        joined_gid = next(iter(node.groups))
        assert joined_gid == small_gid

    def test_joined_node_catches_up_data(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        client = make_client(sim, net, system)
        for i in range(20):
            client.put(f"pre-{i}", i)
        sim.run_for(6.0)
        node = system.add_node()
        sim.run_for(12.0)
        assert len(node.groups) == 1
        replica = next(iter(node.groups.values()))
        # Every key the group owns is present in the new member's store.
        leader = system.leader_of(replica.gid)
        assert leader is not None
        sim.run_for(4.0)
        for key in leader.owned_keys():
            assert replica.store.get(key).ok, f"missing key {key}"


class TestGroupFailureHandling:
    def test_dead_member_is_removed(self):
        sim, net, system = build(n_nodes=8, n_groups=2)
        groups = system.active_groups()
        gid, replica = next(iter(groups.items()))
        victim = [m for m in replica.members if not system.nodes[m].groups[gid].is_leader][0]
        system.kill_node(victim)
        sim.run_for(15.0)
        leader = system.leader_of(gid)
        assert leader is not None
        assert victim not in leader.members

    def test_leader_death_fails_over_and_serves(self):
        sim, net, system = build()
        client = make_client(sim, net, system)
        client.put("k", "v")
        sim.run_for(3.0)
        gid = next(
            g.gid for g in system.active_groups().values() if g.range.contains(hash_key("k"))
        )
        leader = system.leader_of(gid)
        system.kill_node(leader.paxos.replica_id)
        sim.run_for(10.0)
        f = client.get("k")
        sim.run_for(8.0)
        assert f.result().ok
        assert f.result().value == "v"
