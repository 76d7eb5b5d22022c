"""What the cyclic collector is left to do, guarded by counts.

Three properties, none of them a timing: a window of client ops leaves
no unreachable object behind; what is cyclic by nature (a discarded
deployment, dead nodes and all) is gone once the next deployment is
built; and the collector settings a simulation runs under never leak
out to its caller.
"""

import gc
import weakref

import pytest

from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.perf.microbench import cyclic_garbage
from repro.sim import Simulator, paced_gc

SMALL = DeploymentParams(n_nodes=9, n_groups=3, n_clients=1)


@pytest.fixture
def collector_off():
    """Only an explicit ``gc.collect()`` can free a cycle in these tests."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_client_ops_leave_no_cyclic_garbage():
    unreachable, ops = cyclic_garbage(5.0)
    assert ops > 2000
    assert unreachable == 0


def test_discarded_deployment_is_reclaimed_by_the_next_build(collector_off):
    first = build_scatter_deployment(SMALL)
    nodes = [weakref.ref(node) for node in first.system.nodes.values()]
    del first
    assert all(ref() is not None for ref in nodes)  # cyclic: reference counts keep it
    second = build_scatter_deployment(SMALL)
    assert [ref() for ref in nodes] == [None] * SMALL.n_nodes
    assert len(second.system.nodes) == SMALL.n_nodes


def test_churned_deployment_is_reclaimed_whole(collector_off):
    """Twenty departures and joins in one run, then a rebuild.

    ``ScatterSystem.nodes`` keeps a departed node on purpose (the
    fuzzer's invariants read durable state on dead nodes), so while the
    deployment lives the dead nodes alive are exactly the ones it lists.
    Once it is dropped, the next build leaves none: 0 dead nodes alive.
    """
    deployment = build_scatter_deployment(DeploymentParams(n_nodes=15, n_groups=3, n_clients=1))
    system, sim = deployment.system, deployment.sim
    dead = []
    for _ in range(20):
        victim = system.alive_node_ids()[-1]
        dead.append(weakref.ref(system.nodes[victim]))
        system.kill_node(victim)
        sim.run_for(0.5)
        system.add_node()
        sim.run_for(1.5)
    assert sum(ref() is not None for ref in dead) == 20
    assert sum(not node.alive for node in system.nodes.values()) == 20
    joined = [weakref.ref(node) for node in system.nodes.values() if node.alive]

    del deployment, system, sim
    build_scatter_deployment(SMALL)
    assert [ref() for ref in dead + joined] == [None] * (20 + len(joined))


class TestCallerSettingsRestored:
    CALLER = (713, 11, 12)

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        before = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        yield
        gc.set_threshold(*before)

    def test_after_run_for_and_run(self):
        sim = Simulator()
        inside = []
        sim.schedule(1.0, lambda: inside.append(gc.get_threshold()))
        sim.schedule(3.0, lambda: inside.append(gc.get_threshold()))
        sim.run_for(2.0)
        assert gc.get_threshold() == self.CALLER and gc.isenabled()
        sim.run()
        assert gc.get_threshold() == self.CALLER and gc.isenabled()
        assert len(inside) == 2 and inside[0] == inside[1] != self.CALLER
        assert inside[0][0] > self.CALLER[0]

    def test_after_nested_run_until_from_a_handler(self):
        sim = Simulator()
        seen = []

        def outer():
            before = gc.get_threshold()
            sim.run_until(sim.now + 1.0)
            seen.append((before, gc.get_threshold()))

        sim.schedule(1.0, outer)
        sim.schedule(1.5, seen.append, "inner event")
        sim.schedule(3.0, lambda: seen.append(gc.get_threshold()))
        sim.run_for(5.0)
        paced = seen[1][0]
        # The nested loop left the outer loop's thresholds in force.
        assert seen == ["inner event", (paced, paced), paced]
        assert gc.get_threshold() == self.CALLER

    def test_after_a_handler_raises(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("handler failure")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run_for(2.0)
        assert gc.get_threshold() == self.CALLER and gc.isenabled()
        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.get_threshold() == self.CALLER and gc.isenabled()

    def test_disabled_collector_stays_disabled(self, collector_off):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_for(2.0)
        build_scatter_deployment(SMALL)
        assert not gc.isenabled()
        assert gc.get_threshold() == self.CALLER

    def test_after_a_builder(self):
        build_scatter_deployment(SMALL)
        assert gc.get_threshold() == self.CALLER and gc.isenabled()

    def test_scope_restores_when_its_body_raises(self):
        with pytest.raises(KeyError):
            with paced_gc():
                assert gc.get_threshold() != self.CALLER
                raise KeyError("body")
        assert gc.get_threshold() == self.CALLER
