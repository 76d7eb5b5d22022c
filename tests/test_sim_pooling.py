"""Zero-perturbation guards for direct-dispatch delivery.

While no fault is active, ``SimNetwork.send`` schedules 7-slot heap
entries whose event function is the destination handler, recycled
through ``Simulator._msg_pool``.  That path must be *invisible*: a
recycled entry must never leak state between messages, every mutation
that could invalidate a baked-in handler (faults, unregister, handler
replacement) must de-optimize in-flight entries back to fully-checked
deliveries, and a traced run — which takes the same route — must
reproduce the untraced run byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.obs import Tracer, tracing
from repro.sim.latency import ConstantLatency
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload


def _deployment_fingerprint(seed: int):
    """(events, sends, op history) for a short fault-free seeded run."""
    params = DeploymentParams(n_nodes=15, n_groups=5, n_clients=3, seed=seed)
    deployment = build_scatter_deployment(params)
    sim = deployment.sim
    workload = ClosedLoopWorkload(
        sim, deployment.clients, UniformKeys(40), read_fraction=0.5
    )
    workload.start()
    sim.run_for(15.0)
    workload.stop()
    sim.run_for(1.0)
    history = tuple(
        (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9))
        for r in workload.all_records()
    )
    return sim.events_processed, deployment.net.stats.sent, history


class TestPoolingZeroPerturbation:
    """Traced vs untraced: same seed => byte-identical observable run.

    The names predate the removal of the network's ``pooling`` switch
    and are kept so the suite's test ids stay stable.  With the switch
    gone, an installed tracer is the only thing that ever changed which
    delivery route a fault-free message took, so it is the A/B left.
    """

    def test_deployment_fingerprints_match(self):
        plain = _deployment_fingerprint(21)
        with tracing(Tracer()):
            assert _deployment_fingerprint(21) == plain


@pytest.mark.slow
@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5"])
def test_experiment_tables_identical_with_pooling_off(name):
    """E1-E5 quick mode: a traced run reproduces the untraced tables byte-for-byte."""
    plain = ALL_EXPERIMENTS[name](quick=True).table()
    with tracing(Tracer()):
        traced = ALL_EXPERIMENTS[name](quick=True).table()
    assert traced == plain


class TestPooledEntryHygiene:
    """A recycled delivery entry must never leak state between messages."""

    def test_mutating_a_delivered_message_cannot_corrupt_a_later_send(self):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        got: list = []
        net.register("dst", lambda src, msg: got.append(msg))
        assert net._fault_free, "fault-free network should dispatch directly"

        msg_a = {"op": "put", "payload": [1, 2, 3]}
        net.send("src", "dst", msg_a)
        sim.run()
        assert got == [msg_a]
        # The delivery entry is back in the pool with its message slots
        # cleared — the pool holds no reference that mutation could reach.
        assert len(sim._msg_pool) == 1
        pooled = sim._msg_pool[0]
        assert pooled[3][0] is None and pooled[3][1] is None

        # Sender mutates the delivered message afterwards (a buggy or
        # merely frugal caller).  The next send reuses the pooled entry.
        msg_a["payload"].append(999)
        msg_a["op"] = "corrupted"
        msg_b = {"op": "get"}
        net.send("src", "dst", msg_b)
        sim.run()
        assert len(got) == 2
        assert got[1] is msg_b, "recycled entry must carry the new message only"
        assert got[1] == {"op": "get"}

    def test_pool_is_bounded(self):
        from repro.sim.loop import _MSG_POOL_CAP

        sim = Simulator(seed=2)
        net = SimNetwork(sim, latency=ConstantLatency(0.001))
        net.register("dst", lambda src, msg: None)
        for i in range(_MSG_POOL_CAP + 500):
            net.send("src", "dst", i)
        sim.run()
        assert len(sim._msg_pool) <= _MSG_POOL_CAP


class TestInFlightDeoptimization:
    """Mutations between send and delivery must re-enable full checks."""

    def _fast_net(self):
        sim = Simulator(seed=3)
        net = SimNetwork(sim, latency=ConstantLatency(0.01))
        got: list = []
        net.register("dst", lambda src, msg: got.append(("orig", msg)))
        assert net._fault_free
        return sim, net, got

    def test_destination_crash_in_flight_counts_to_dead(self):
        sim, net, got = self._fast_net()
        net.send("src", "dst", "m1")
        assert any(len(e) == 7 for e in sim._queue._heap)
        net.set_down("dst")
        # The fault de-optimized the in-flight direct entry in place.
        assert all(len(e) == 4 for e in sim._queue._heap)
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1
        assert net.stats.delivered == 0

    def test_unregister_in_flight_counts_to_dead(self):
        sim, net, got = self._fast_net()
        net.send("src", "dst", "m1")
        net.unregister("dst")
        assert all(len(e) == 4 for e in sim._queue._heap)
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1

    def test_handler_replacement_in_flight_delivers_to_new_handler(self):
        sim, net, got = self._fast_net()
        net.send("src", "dst", "m1")
        net.register("dst", lambda src, msg: got.append(("new", msg)))
        sim.run()
        assert got == [("new", "m1")]
        assert net.stats.delivered == 1

    def test_block_in_flight_drops_at_delivery(self):
        sim, net, got = self._fast_net()
        net.send("src", "dst", "m1")
        net.block("src", "dst")
        sim.run()
        assert got == []
        assert net.stats.dropped == 1

    def test_heal_after_deopt_still_delivers(self):
        sim, net, got = self._fast_net()
        net.send("src", "dst", "m1")
        net.block("a", "b")  # unrelated fault forces de-opt
        net.unblock("a", "b")  # healed before delivery
        sim.run()
        assert got == [("orig", "m1")]
        assert net.stats.delivered == 1
