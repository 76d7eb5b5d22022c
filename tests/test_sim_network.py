"""Unit tests for latency models and the simulated network."""

import random

import pytest

from repro.obs import Tracer, tracing
from repro.sim import (
    ConstantLatency,
    LogNormalLatency,
    SimNetwork,
    Simulator,
    UniformLatency,
    WanLatencyMatrix,
)
from repro.sim.network import NetworkStats


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.01)
        rng = random.Random(0)
        assert model.sample("a", "b", rng) == 0.01
        assert model.expected("a", "b") == 0.01

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)

    def test_uniform_bounds(self):
        model = UniformLatency(0.001, 0.01)
        rng = random.Random(1)
        samples = [model.sample("a", "b", rng) for _ in range(200)]
        assert all(0.001 <= s < 0.01 for s in samples)
        assert model.expected("a", "b") == pytest.approx(0.0055)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.01, 0.001)

    def test_lognormal_positive_and_tail(self):
        model = LogNormalLatency(base=0.002, sigma=0.5)
        rng = random.Random(2)
        samples = [model.sample("a", "b", rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert max(samples) > 2 * min(samples)  # genuine spread

    @pytest.mark.parametrize("sigma", [0.4, 0.2, 0.0])
    def test_lognormal_draws_are_the_stdlib_draws(self, sigma):
        """The inlined draw is ``rng.lognormvariate(0.0, sigma)``, float
        for float, and leaves the stream where the stdlib leaves it."""
        model, wan = LogNormalLatency(0.004, sigma), WanLatencyMatrix(seed=2, jitter_sigma=sigma)
        base = wan.base_latency("a", "b")
        ours, stdlib = random.Random(33), random.Random(33)
        for _ in range(50_000):
            assert model.sample("a", "b", ours) == 0.004 * stdlib.lognormvariate(0.0, sigma)
            assert wan.sample("a", "b", ours) == base * stdlib.lognormvariate(0.0, sigma)
        assert ours.getstate() == stdlib.getstate()

    def test_wan_matrix_is_deterministic_per_name(self):
        m1 = WanLatencyMatrix(seed=7)
        m2 = WanLatencyMatrix(seed=7)
        assert m1.coord("n1") == m2.coord("n1")
        assert m1.base_latency("n1", "n2") == m2.base_latency("n1", "n2")

    def test_wan_matrix_symmetric_base(self):
        m = WanLatencyMatrix(seed=3)
        assert m.base_latency("a", "b") == pytest.approx(m.base_latency("b", "a"))

    def test_wan_matrix_self_latency_is_floor(self):
        m = WanLatencyMatrix(seed=3, floor=0.002)
        assert m.base_latency("a", "a") == 0.002

    def test_wan_matrix_heterogeneous(self):
        m = WanLatencyMatrix(seed=5)
        lats = {m.base_latency("a", other) for other in "bcdefgh"}
        assert len(lats) > 1


class TestSimNetwork:
    def _net(self, **kwargs):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, **kwargs)
        return sim, net

    def test_basic_delivery(self):
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda src, msg: got.append((src, msg, sim.now)))
        net.send("a", "b", "hello")
        sim.run()
        assert got == [("a", "hello", 0.01)]

    def test_message_to_unregistered_is_dropped(self):
        sim, net = self._net()
        net.send("a", "nowhere", "x")
        sim.run()
        assert net.stats.to_dead == 1

    def test_down_destination_swallows_message(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.set_down("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1

    def test_down_source_cannot_send(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.register("a", lambda s, m: None)
        net.set_down("a")
        net.send("a", "b", "x")
        sim.run()
        assert got == []

    def test_crash_in_flight_loses_message(self):
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.send("a", "b", "x")
        sim.schedule(0.005, net.set_down, "b")
        sim.run()
        assert got == []

    def test_recovery_allows_delivery_again(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.set_down("b")
        net.set_up("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]

    def test_drop_probability(self):
        sim, net = self._net(drop_prob=0.5)
        got = []
        net.register("b", lambda s, m: got.append(m))
        for _ in range(400):
            net.send("a", "b", "x")
        sim.run()
        assert 100 < len(got) < 300

    def test_drop_prob_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimNetwork(sim, drop_prob=1.0)

    def test_partition_blocks_both_directions(self):
        sim, net = self._net()
        got = []
        net.register("a", lambda s, m: got.append(("a", m)))
        net.register("b", lambda s, m: got.append(("b", m)))
        net.partition({"a"}, {"b"})
        net.send("a", "b", "x")
        net.send("b", "a", "y")
        sim.run()
        assert got == []

    def test_heal_restores_traffic(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.block("a", "b")
        net.heal()
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]

    def test_partition_decided_at_delivery_too(self):
        # A message in flight when the partition forms is also lost.
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.send("a", "b", "x")
        sim.schedule(0.005, net.block, "a", "b")
        sim.run()
        assert got == []

    def test_stats_by_type_opt_in(self):
        # Per-type counts are the tracer's: a traced network reports
        # each send under net.msg.<payload type>.
        tracer = Tracer()
        with tracing(tracer):
            sim, net = self._net()
        net.register("b", lambda s, m: None)
        net.send("a", "b", 123)
        net.send("a", "b", "str")
        sim.run()
        m = tracer.metrics
        assert (m.counter("net.msg.int"), m.counter("net.msg.str")) == (1, 1)
        assert m.counter("net.sent") == net.stats.sent == 2
        assert m.counter("net.delivered") == net.stats.delivered == 2

    def test_stats_by_type_off_by_default(self):
        # Untraced, the network keeps only the integer counters.
        sim, net = self._net()
        net.register("b", lambda s, m: None)
        net.send("a", "b", 123)
        sim.run()
        assert net.stats == NetworkStats(sent=1, delivered=1)

    def test_deterministic_with_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = SimNetwork(sim, latency=UniformLatency(0.001, 0.01))
            arrivals = []
            net.register("b", lambda s, m: arrivals.append((m, sim.now)))
            for i in range(20):
                net.send("a", "b", i)
            sim.run()
            return arrivals

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_addresses_sorted(self):
        sim, net = self._net()
        net.register("z", lambda s, m: None)
        net.register("a", lambda s, m: None)
        assert net.addresses() == ["a", "z"]


class TestFaultFreeFastPath:
    """The fault-free send fast path must be invisible except for speed."""

    def _net(self, **kwargs):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, **kwargs)
        return sim, net

    def test_fast_path_active_only_when_fault_free(self):
        sim, net = self._net()
        assert net._fault_free
        net.block("a", "b")
        assert not net._fault_free
        net.unblock("a", "b")
        assert net._fault_free
        net.set_down("a")
        assert not net._fault_free
        net.set_up("a")
        assert net._fault_free
        net.set_link_slowdown("a", "b", 3.0)
        assert not net._fault_free
        net.clear_slowdowns()
        assert net._fault_free
        net.drop_prob = 0.1
        assert not net._fault_free
        net.drop_prob = 0.0
        assert net._fault_free
        net.dup_prob = 0.1
        assert not net._fault_free
        net.dup_prob = 0.0
        assert net._fault_free

    def test_drop_prob_setter_validates(self):
        _sim, net = self._net()
        with pytest.raises(ValueError):
            net.drop_prob = 1.5
        with pytest.raises(ValueError):
            net.dup_prob = -0.1

    def test_heal_restores_fast_path(self):
        sim, net = self._net()
        net.partition({"a"}, {"b"})
        assert not net._fault_free
        net.heal()
        assert net._fault_free

    def test_fast_and_slow_paths_deliver_identically(self):
        # Force the slow path with a block between two addresses that
        # never exchange traffic: every check still evaluates false and
        # no extra RNG draws happen, so arrival times must be identical
        # to the fast path run.
        def run(force_slow):
            sim = Simulator(seed=7)
            net = SimNetwork(sim, latency=UniformLatency(0.001, 0.01))
            if force_slow:
                net.block_one_way("__nobody__", "__never__")
            arrivals = []
            net.register("a", lambda s, m: arrivals.append(("a", m, sim.now)))
            net.register("b", lambda s, m: arrivals.append(("b", m, sim.now)))
            for i in range(50):
                net.send("a", "b", i)
                net.send("b", "a", i)
            sim.run()
            return arrivals, net.stats.sent, net.stats.delivered

        assert run(force_slow=False) == run(force_slow=True)

    def test_fast_path_still_checks_faults_at_delivery(self):
        # A message sent on the fast path must still be lost if the
        # destination dies (or a partition forms) while it is in flight.
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda s, m: got.append(m))
        assert net._fault_free
        net.send("a", "b", "doomed")
        sim.schedule(0.005, net.set_down, "b")
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1
