"""Unit tests for churn, key distributions, and the workload driver."""

import math
import random

import pytest

from repro.dht.ring import hash_key
from repro.sim import ConstantLatency, SimNetwork, Simulator
from repro.workloads import (
    ChurnProcess,
    UniformKeys,
    ZipfKeys,
    exponential_lifetime,
    pareto_lifetime,
)
from repro.workloads.keys import KeySpace


class TestLifetimes:
    def test_exponential_median(self):
        rng = random.Random(1)
        sample = exponential_lifetime(100.0)
        values = sorted(sample(rng) for _ in range(4000))
        median = values[len(values) // 2]
        assert 90 < median < 110

    def test_pareto_median(self):
        rng = random.Random(2)
        sample = pareto_lifetime(100.0, alpha=1.5)
        values = sorted(sample(rng) for _ in range(4000))
        median = values[len(values) // 2]
        assert 90 < median < 110

    def test_pareto_is_heavier_tailed(self):
        rng = random.Random(3)
        exp = [exponential_lifetime(100.0)(rng) for _ in range(4000)]
        par = [pareto_lifetime(100.0)(rng) for _ in range(4000)]
        assert max(par) > max(exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_lifetime(0)
        with pytest.raises(ValueError):
            pareto_lifetime(-1)


class FakeSystem:
    """Minimal ChurnTarget for unit-testing the process."""

    def __init__(self, sim, n):
        self.sim = sim
        self.alive = {f"n{i}" for i in range(n)}
        self.counter = n

    def kill_node(self, node_id):
        self.alive.discard(node_id)

    def add_node(self, seed=None):
        name = f"n{self.counter}"
        self.counter += 1
        self.alive.add(name)

        class N:
            node_id = name

        return N()

    def alive_node_ids(self):
        return sorted(self.alive)


class TestChurnProcess:
    def test_population_stays_steady(self):
        sim = Simulator(seed=4)
        system = FakeSystem(sim, 20)
        churn = ChurnProcess(sim, system, exponential_lifetime(50.0), join_delay=0.1)
        churn.start()
        sim.run_until(500.0)
        assert churn.departures > 20  # several generations churned
        assert 15 <= len(system.alive) <= 25

    def test_no_replacement_shrinks_population(self):
        sim = Simulator(seed=5)
        system = FakeSystem(sim, 20)
        churn = ChurnProcess(sim, system, exponential_lifetime(50.0), replace=False)
        churn.start()
        sim.run_until(400.0)
        assert len(system.alive) < 10

    def test_stop_halts_churn(self):
        sim = Simulator(seed=6)
        system = FakeSystem(sim, 10)
        churn = ChurnProcess(sim, system, exponential_lifetime(10.0))
        churn.start()
        sim.run_until(5.0)
        churn.stop()
        before = churn.departures
        sim.run_until(100.0)
        assert churn.departures == before

    def test_deterministic(self):
        def run(seed):
            sim = Simulator(seed=seed)
            system = FakeSystem(sim, 10)
            churn = ChurnProcess(sim, system, exponential_lifetime(20.0))
            churn.start()
            sim.run_until(100.0)
            return (churn.departures, sorted(system.alive))

        assert run(7) == run(7)


class TestKeySpaces:
    def test_uniform_covers_keys(self):
        keys = UniformKeys(10)
        rng = random.Random(8)
        seen = {keys.sample(rng) for _ in range(500)}
        assert seen == set(keys.all_keys())

    @pytest.mark.parametrize("keys", [UniformKeys(50), ZipfKeys(50, theta=1.0)])
    def test_ring_ids_are_the_sampled_keys_hashed_once(self, keys):
        names, ids = random.Random(4), random.Random(4)
        for _ in range(300):
            assert keys.sample_ring_id(ids) == hash_key(keys.sample(names))
        assert 0 < len(keys._ring_ids) <= keys.n_keys

    def test_zipf_skews_toward_low_ranks(self):
        keys = ZipfKeys(100, theta=1.0)
        rng = random.Random(9)
        counts = {}
        for _ in range(5000):
            k = keys.sample(rng)
            counts[k] = counts.get(k, 0) + 1
        top = counts.get(keys.key(0), 0)
        mid = counts.get(keys.key(50), 0)
        assert top > 10 * max(mid, 1)

    def test_zipf_theta_zero_is_uniform_ish(self):
        keys = ZipfKeys(10, theta=0.0)
        rng = random.Random(10)
        counts = {}
        for _ in range(5000):
            k = keys.sample(rng)
            counts[k] = counts.get(k, 0) + 1
        assert max(counts.values()) < 2 * min(counts.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformKeys(0)
        with pytest.raises(ValueError):
            ZipfKeys(10, theta=-1)

    def test_key_naming(self):
        keys = UniformKeys(3, prefix="user")
        assert keys.key(2) == "user-2"
