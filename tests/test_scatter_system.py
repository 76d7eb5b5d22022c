"""Tests for ScatterSystem observation helpers and node-level plumbing."""

import pytest

from repro.dht.messages import GossipReq, GroupNeighborsReq, JoinLookupReq
from repro.dht.ring import KEY_SPACE, KeyRange
from repro.dht.scatter import ROUTING_CACHE_SIZE
from repro.dht.system import ScatterSystem
from repro.group.info import GroupInfo
from repro.group.replica import GroupStatus
from repro.policies import ScatterPolicy
from repro.sim import ConstantLatency, SimNetwork, Simulator

from test_scatter_basic import build, fast_config


class TestBuilder:
    def test_rejects_bad_shapes(self):
        sim = Simulator()
        net = SimNetwork(sim)
        with pytest.raises(ValueError):
            ScatterSystem.build(sim, net, n_nodes=2, n_groups=3)
        with pytest.raises(ValueError):
            ScatterSystem.build(sim, net, n_nodes=2, n_groups=0)

    def test_uneven_membership_distribution(self):
        sim, net, system = build(n_nodes=7, n_groups=2)
        sizes = sorted(len(g.members) for g in system.active_groups().values())
        assert sizes == [3, 4]

    def test_ring_is_consistent_detects_gap(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        assert system.ring_is_consistent()
        # Forge a gap by shrinking one group's view of its range.
        g = next(iter(system.active_groups().values()))
        for node in system.nodes.values():
            replica = node.groups.get(g.gid)
            if replica is not None:
                replica.range = KeyRange(replica.range.lo, (replica.range.lo + 5) % KEY_SPACE)
        assert not system.ring_is_consistent()

    def test_total_keys_counts_each_key_once(self):
        sim, net, system = build()
        from test_scatter_basic import make_client

        client = make_client(sim, net, system)
        for i in range(10):
            client.put(f"tk-{i}", i)
        sim.run_for(5.0)
        assert system.total_keys() == 10


class TestNodeKnowledge:
    def test_known_groups_excludes_forwarded(self):
        sim, net, system = build()
        node = next(iter(system.nodes.values()))
        some_info = GroupInfo(
            gid="dead", range=KeyRange(1, 2), members=("x",), leader_hint="x"
        )
        node.learn(some_info)
        assert any(i.gid == "dead" for i in node.known_groups())
        node.forwarding["dead"] = ()
        node.cache.pop("dead", None)
        assert not any(i.gid == "dead" for i in node.known_groups())

    def test_learn_respects_cache_bound(self):
        sim, net, system = build()
        node = next(iter(system.nodes.values()))
        for i in range(ROUTING_CACHE_SIZE + 20):
            node.learn(
                GroupInfo(gid=f"x{i}", range=KeyRange(i, i + 1), members=("m",), leader_hint="m")
            )
        assert len(node.cache) <= ROUTING_CACHE_SIZE

    def test_learn_ignores_hosted_groups(self):
        sim, net, system = build()
        node = next(iter(system.nodes.values()))
        gid = next(iter(node.groups))
        fake = GroupInfo(gid=gid, range=KeyRange(0, 1), members=("z",), leader_hint="z")
        node.learn(fake)
        assert gid not in node.cache

    def test_gossip_spreads_infos(self):
        sim, net, system = build(n_nodes=9, n_groups=3)
        sim.run_for(20.0)  # several gossip rounds
        # Eventually nodes know about non-adjacent groups too.
        known_counts = [
            len(node.known_groups()) for node in system.nodes.values() if node.alive
        ]
        assert max(known_counts) == 3


class TestRpcSurfaces:
    def test_join_lookup_returns_group(self):
        sim, net, system = build()
        from repro.net.node import Node

        probe = Node("probe", sim, net)
        f = probe.request("s0", JoinLookupReq(), timeout=1.0)
        sim.run_for(1.0)
        assert f.result().target is not None

    def test_group_neighbors_from_leader(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        from repro.net.node import Node

        gid = "g0"
        leader = system.leader_of(gid)
        probe = Node("probe", sim, net)
        f = probe.request(leader.paxos.replica_id, GroupNeighborsReq(gid=gid), timeout=1.0)
        sim.run_for(1.0)
        resp = f.result()
        assert resp.status == "ok"
        assert resp.info.gid == gid
        assert resp.successor is not None

    def test_group_neighbors_from_follower_redirects(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        from repro.net.node import Node

        gid = "g0"
        leader = system.leader_of(gid)
        follower = next(
            m for m in leader.members if m != leader.paxos.replica_id
        )
        probe = Node("probe", sim, net)
        f = probe.request(follower, GroupNeighborsReq(gid=gid), timeout=1.0)
        sim.run_for(1.0)
        resp = f.result()
        assert resp.status == "not_leader"
        assert resp.leader_hint == leader.paxos.replica_id

    def test_gossip_reply_bounded(self):
        sim, net, system = build()
        from repro.net.node import Node

        probe = Node("probe", sim, net)
        f = probe.request("s0", GossipReq(), timeout=1.0)
        sim.run_for(1.0)
        assert len(f.result().infos) <= 8


class TestRestart:
    def test_node_crash_and_restart_rejoins_protocol(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        node = system.nodes["s2"]
        gid = next(iter(node.groups))
        node.crash()
        sim.run_for(2.0)
        node.restart()
        sim.run_for(8.0)
        # Either it is still a member and caught up, or it was removed by
        # failure detection; both are legal — but it must not wedge.
        leader = system.leader_of(gid)
        assert leader is not None

    def test_alive_node_ids_excludes_dead(self):
        sim, net, system = build(n_nodes=6, n_groups=2)
        system.kill_node("s1")
        assert "s1" not in system.alive_node_ids()
