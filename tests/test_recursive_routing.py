"""Routing without server-side forwarding.

A node that does not own a key answers ``redirect``, and the client
follows the hops itself.  Each test
seeds its clients with a node outside the key's owner group, so every
op starts with that redirect.
"""

from repro.dht.client import ScatterClient
from repro.dht.ring import hash_key

from test_scatter_basic import build


def redirected_client(sim, net, system, key, name):
    """A cold client that only knows a node outside ``key``'s owner group."""
    owner = next(
        g for g in system.active_groups().values() if g.range.contains(hash_key(key))
    )
    outside = next(n for n in system.alive_node_ids() if n not in owner.paxos.members)
    return ScatterClient(name, sim, net, seed_provider=lambda: [outside])


def redirected_op(sim, net, system, key, name, value=None):
    client = redirected_client(sim, net, system, key, name)
    future = client.get(key) if value is None else client.put(key, value)
    return client, future


class TestRecursiveRouting:
    def test_put_get_roundtrip(self):
        sim, net, system = build()
        putter, f = redirected_op(sim, net, system, "rkey", "rc0", "rvalue")
        sim.run_for(3.0)
        assert f.result().ok
        getter, g = redirected_op(sim, net, system, "rkey", "rc1")
        sim.run_for(3.0)
        assert g.result().value == "rvalue"
        # Each cold client was redirected once, then reached the owner.
        assert [r.hops for r in putter.records + getter.records] == [2, 2]

    def test_iterative_cold_client_often_needs_more(self):
        sim, net, system = build(n_nodes=12, n_groups=4)
        # Pick a key NOT owned by the group of the node the client asks,
        # by probing: with 4 groups most keys need a redirect.
        client = ScatterClient("it0", sim, net, seed_provider=lambda: ["s0"])
        keys = [f"probe-{i}" for i in range(8)]
        for k in keys:
            client.put(k, 0)
        sim.run_for(6.0)
        assert max(r.hops for r in client.records if r.completed) > 1

    def test_many_keys_recursive(self):
        sim, net, system = build()
        puts = [redirected_op(sim, net, system, f"rk-{i}", f"p{i}", i) for i in range(30)]
        sim.run_for(8.0)
        assert all(f.result().ok for _c, f in puts)
        gets = [redirected_op(sim, net, system, f"rk-{i}", f"g{i}") for i in range(30)]
        sim.run_for(8.0)
        assert [f.result().value for _c, f in gets] == list(range(30))
        assert all(c.records[0].hops >= 2 for c, _f in puts + gets)

    def test_recursive_works_across_split(self):
        from test_group_ops import build_manual

        sim, net, system = build_manual(n_nodes=6, n_groups=1)
        client = ScatterClient("rc0", sim, net, seed_provider=system.alive_node_ids)
        for i in range(10):
            client.put(f"sp-{i}", i)
        sim.run_for(5.0)
        leader = system.leader_of(next(iter(system.active_groups())))
        leader.host.start_split(leader)
        sim.run_for(8.0)
        assert system.group_count() == 2
        gets = [redirected_op(sim, net, system, f"sp-{i}", f"g{i}") for i in range(10)]
        sim.run_for(8.0)
        assert all(
            f.result().ok and f.result().value == i for i, (_c, f) in enumerate(gets)
        )
        assert all(c.records[0].hops >= 2 for c, _f in gets)
