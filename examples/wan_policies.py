#!/usr/bin/env python3
"""WAN deployment: watch the latency policy move leaders to their quorums.

Builds a Scatter ring over a clustered wide-area latency matrix (five
synthetic sites), turns on the latency policy, and shows each group's
leader migrating to the member with the fastest nearby majority —
then compares Paxos commit latency before and after.

Run:  python examples/wan_policies.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dht.client import ClientConfig, ScatterClient
from repro.dht.system import ScatterSystem
from repro.harness.builders import experiment_scatter_config
from repro.policies import ScatterPolicy
from repro.sim import SimNetwork, Simulator, WanLatencyMatrix
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload


def quorum_latency_ms(system, latency, gid, leader):
    """Expected one-way latency to the leader's fastest majority peer."""
    group = system.active_groups()[gid]
    members = group.members
    majority = len(members) // 2 + 1
    others = sorted(latency.expected(leader, m) for m in members if m != leader)
    return 1000 * others[majority - 2]


def leaders(system):
    return {gid: system.leader_of(gid).paxos.replica_id for gid in sorted(system.active_groups())}


def main() -> None:
    sim = Simulator(seed=9)
    latency = WanLatencyMatrix(seed=9, span=0.1, floor=0.003, sites=5)
    net = SimNetwork(sim, latency=latency)
    policy = ScatterPolicy(target_size=5, split_size=99, merge_size=0, leader_mode="latency")
    system = ScatterSystem.build(
        sim, net, n_nodes=20, n_groups=4,
        config=experiment_scatter_config(), policy=policy,
    )
    sim.run_for(0.2)  # before the first maintenance tick fires
    before = leaders(system)

    # Drive writes while the policy works.
    client = ScatterClient(
        "wan-app", sim, net, seed_provider=system.alive_node_ids,
        config=ClientConfig(rpc_timeout=1.5, op_timeout=12.0),
    )
    workload = ClosedLoopWorkload(sim, [client], UniformKeys(50), read_fraction=0.2)
    workload.start()
    sim.run_for(30.0)  # the policy evaluates each maintenance tick
    after = leaders(system)
    workload.stop()
    sim.run_for(1.0)

    print("synthetic WAN: 20 nodes across 5 sites, 4 groups of 5\n")
    print(f"{'group':<8} {'leader: before -> after':<26} {'quorum latency (ms)'}")
    print("-" * 62)
    moved = 0
    for gid in before:
        b, a = before[gid], after.get(gid, "?")
        lb = quorum_latency_ms(system, latency, gid, b)
        la = quorum_latency_ms(system, latency, gid, a)
        mark = ""
        if a != b:
            moved += 1
            mark = "  <- moved"
        print(f"{gid:<8} {b:>6} -> {a:<14} {lb:6.1f} -> {la:<6.1f}{mark}")
    print(f"\n{moved} leader(s) migrated toward their quorum's latency optimum")
    ops = [r for r in client.records if r.completed]
    print(f"({len(ops)} client ops completed meanwhile)")


if __name__ == "__main__":
    main()
