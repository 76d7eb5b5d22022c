"""Deployment builders shared by experiments, benchmarks, and examples."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.baseline.chord import ChordClient, ChordConfig, ChordSystem
from repro.consensus.replica import PaxosConfig
from repro.dht.client import ClientConfig, ScatterClient
from repro.dht.scatter import ScatterConfig
from repro.dht.system import ScatterSystem
from repro.policies import ScatterPolicy
from repro.sim.latency import LatencyModel, LogNormalLatency
from repro.sim.loop import Simulator, paced_gc
from repro.sim.network import SimNetwork

# Timing profile used across experiments: fast enough that a simulated
# minute exercises many protocol rounds.  Where most groups are idle,
# heartbeats still dominate the traffic: a quiescent leader renews every
# lease_duration - heartbeat_interval (0.35 s here), and on the 666-group
# ring_2000 heartbeats are 0.42 of messages (0.62 at one round per 0.15 s).
EXPERIMENT_PAXOS = PaxosConfig(
    heartbeat_interval=0.15,
    election_timeout=0.7,
    lease_duration=0.5,
    retry_interval=0.4,
    compact_threshold=400,
)


def experiment_scatter_config(**overrides) -> ScatterConfig:
    defaults = dict(
        paxos=EXPERIMENT_PAXOS,
        maintenance_interval=1.0,
        dead_timeout=3.0,
        txn_rpc_timeout=1.5,
        txn_recovery_timeout=6.0,
        txn_cooldown=2.0,
        gossip_interval=3.0,
        retired_linger=30.0,
        join_retry=0.5,
    )
    defaults.update(overrides)
    return ScatterConfig(**defaults)


@dataclass
class DeploymentParams:
    """One deployment's shape, shared between the two backends."""

    n_nodes: int = 30
    n_groups: int = 10
    n_clients: int = 4
    seed: int = 1
    latency: LatencyModel = field(default_factory=lambda: LogNormalLatency(0.004, 0.4))
    drop_prob: float = 0.0
    warmup: float = 3.0


@dataclass
class ScatterDeployment:
    sim: Simulator
    net: SimNetwork
    system: ScatterSystem
    clients: list[ScatterClient]


@dataclass
class ChordDeployment:
    sim: Simulator
    net: SimNetwork
    system: ChordSystem
    clients: list[ChordClient]


@contextmanager
def _building() -> Iterator[None]:
    """One full collection, then the body under the paced thresholds.

    A deployment is a single cycle (nodes, network and simulator all
    point at each other), dead nodes included, so the one the caller
    just dropped is freed by nothing else, and under the paced
    thresholds the next full pass is far off: without the collection,
    churn_recover's three deployments in one interpreter peak at
    67.5 MB instead of 50.1 (before pacing: 51.8).  It runs before the new
    deployment allocates, so it walks only what the caller still holds.
    """
    gc.collect()
    with paced_gc():
        yield


def build_scatter_deployment(
    params: DeploymentParams,
    policy: ScatterPolicy | None = None,
    config: ScatterConfig | None = None,
    client_config: ClientConfig | None = None,
) -> ScatterDeployment:
    with _building():
        sim = Simulator(seed=params.seed)
        net = SimNetwork(sim, latency=params.latency, drop_prob=params.drop_prob)
        policy = policy or ScatterPolicy(target_size=3, split_size=7, merge_size=1)
        system = ScatterSystem.build(
            sim,
            net,
            n_nodes=params.n_nodes,
            n_groups=params.n_groups,
            config=config or experiment_scatter_config(),
            policy=policy,
        )
        clients = [
            ScatterClient(f"client{i}", sim, net, seed_provider=system.alive_node_ids,
                          config=client_config)
            for i in range(params.n_clients)
        ]
        sim.run_for(params.warmup)
    return ScatterDeployment(sim, net, system, clients)


def build_chord_deployment(
    params: DeploymentParams, config: ChordConfig | None = None
) -> ChordDeployment:
    with _building():
        sim = Simulator(seed=params.seed)
        net = SimNetwork(sim, latency=params.latency, drop_prob=params.drop_prob)
        system = ChordSystem.build(sim, net, n_nodes=params.n_nodes, config=config)
        clients = [
            ChordClient(f"client{i}", sim, net, seed_provider=system.alive_node_ids)
            for i in range(params.n_clients)
        ]
        sim.run_for(params.warmup)
    return ChordDeployment(sim, net, system, clients)
