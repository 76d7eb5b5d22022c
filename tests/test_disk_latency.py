"""Tests for the durable-write (fsync) latency model."""

import pytest

from repro.consensus import Command, PaxosConfig
from repro.consensus.harness import build_cluster
from repro.sim import ConstantLatency, SimNetwork, Simulator
from repro.storage.disk import StorageConfig


def commit_latency(disk: float, n_ops: int = 20, seed: int = 3) -> float:
    config = PaxosConfig(
        heartbeat_interval=0.1,
        election_timeout=0.5,
        lease_duration=0.35,
        retry_interval=0.3,
    )
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    hosts = build_cluster(sim, net, n=3, config=config, storage=StorageConfig(fsync_latency=disk))
    sim.run_for(1.5)
    latencies = []
    for i in range(n_ops):
        start = sim.now
        f = hosts[0].propose(Command.app(i))
        stamp = {}
        f.add_callback(lambda _f: stamp.setdefault("t", sim.now))
        sim.run_for(1.0)
        assert f.exception is None
        latencies.append(stamp["t"] - start)
    return sum(latencies) / len(latencies)


class TestDiskLatency:
    def test_sync_commit_pays_the_fsync(self):
        fast = commit_latency(disk=0.0)
        slow = commit_latency(disk=0.004)
        # One durable write sits on the commit path (acceptor side).
        assert slow > fast + 0.003

    def test_latency_scales_with_disk_cost(self):
        a = commit_latency(disk=0.002)
        b = commit_latency(disk=0.010)
        assert b > a + 0.006

    def test_correctness_unaffected(self):
        config = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.5,
            lease_duration=0.35,
        )
        sim = Simulator(seed=4)
        net = SimNetwork(sim, latency=ConstantLatency(0.005))
        hosts = build_cluster(
            sim, net, n=3, config=config, storage=StorageConfig(fsync_latency=0.003)
        )
        sim.run_for(1.5)
        futures = [hosts[0].propose(Command.app(i)) for i in range(15)]
        sim.run_for(5.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            payloads = [c.payload for _s, c in host.applied if c.kind == "app"]
            assert payloads == list(range(15))
