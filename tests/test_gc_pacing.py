"""What the cyclic collector is left to do, guarded by counts.

Five properties, none of them a timing: a window of client ops leaves
no unreachable object behind; an idle node holds a bounded number of
collector-tracked objects, none of them a spent timer; so does a
finished client op, whatever the process ran before; what is cyclic
by nature (a discarded deployment, dead nodes and all) is gone once
the next deployment is built; and the collector settings a simulation
runs under never leak out to its caller.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import types
import weakref

import pytest

import repro
from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.perf.microbench import (
    NODE_FOOTPRINT_CEILING,
    OP_FOOTPRINT_CEILING,
    OP_FOOTPRINT_READ_FRACTIONS,
    cyclic_garbage,
    node_footprint,
    op_footprint,
)
from repro.sim import Simulator, paced_gc
from repro.sim.events import EventHandle
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

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


def _reachable(roots):
    """Every object reachable from ``roots``, not following classes,
    modules or module globals (they lead out into the interpreter)."""
    outside = {id(module.__dict__) for module in list(sys.modules.values())}
    seen = {id(root) for root in roots}
    todo = list(roots)
    while todo:
        obj = todo.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) in seen or id(ref) in outside:
                continue
            if isinstance(ref, (type, types.ModuleType)):
                continue
            seen.add(id(ref))
            todo.append(ref)


def test_idle_node_footprint_is_a_count():
    """An idle node holds at most ``NODE_FOOTPRINT_CEILING`` tracked objects.

    The ring is ``node_footprint``'s: 300 nodes in 100 groups, no
    client, after 3 simulated seconds.  Measured at 46.0 collector-
    tracked objects per node on CPython 3.11 (89.0 while every node
    kept its fired timer handles, a table of bound handlers and two
    empty deques per replica), so the ceiling is 46.0 plus 10%, 50.6.
    Whatever timer handle a node still reaches is one yet to fire.
    """
    deployment, counts = node_footprint(300, 3.0)
    assert counts["tracked_objects_per_node"] <= NODE_FOOTPRINT_CEILING
    nodes = list(deployment.system.nodes.values())
    handles = [obj for obj in _reachable(nodes) if type(obj) is EventHandle]
    assert handles  # heartbeat stretches, at least
    assert [handle for handle in handles if handle.cancelled] == []


@pytest.mark.parametrize("read_fraction", OP_FOOTPRINT_READ_FRACTIONS)
def test_finished_op_footprint_is_a_count(read_fraction):
    """A finished op holds at most ``OP_FOOTPRINT_CEILING`` tracked objects.

    The ring is ``op_footprint``'s: 30 nodes in 10 groups, 8 clients,
    a 20 simulated-second window.  Measured at 2.186 collector-tracked
    objects per op at read fraction 0.5 and 1.927 at 0.1 on CPython
    3.11 (3.887 and 4.536 while every get, miss and write ack was a
    fresh result), so the ceiling is 2.186 plus 10%, 2.40.  What is
    left is the op's ``OpRecord`` and its share of the uncompacted log.
    """
    _, counts = op_footprint(read_fraction)
    assert counts["ops"] > 10_000
    assert counts["tracked_objects_per_op"] <= OP_FOOTPRINT_CEILING


def test_a_store_keeps_one_answer_per_closed_loop_client():
    """After a ``op_footprint`` window every replica's store holds, per
    client, its watermark and at most one answer: a closed-loop client
    has one op open, so nothing it can still ask for is older."""
    deployment, _ = op_footprint(0.1, 5.0)
    clients = {client.node_id for client in deployment.clients}
    stores = [
        replica.store
        for node in deployment.system.nodes.values()
        for replica in node.groups.values()
    ]
    assert len(stores) == 30
    answers = []
    for store in stores:
        assert set(store._sessions) <= clients
        answers.extend(len(session) - 1 for session in store._sessions.values())
    # Every client reached every group: 8 sessions in each of 30 stores,
    # one answer each (8,375 answers in all while a session kept a
    # window of its client's last 128).
    assert answers == [1] * 240


def short_op_footprint() -> dict:
    """A 5 simulated-second ``op_footprint`` window: its history
    fingerprint and its exact per-op count."""
    deployment, counts = op_footprint(0.1, 5.0)
    history = [
        (r.op, r.key, r.invoke_time, r.response_time, r.result)
        for client in deployment.clients
        for r in client.records
    ]
    summary = (deployment.sim.events_processed, deployment.net.stats.sent, history)
    return {
        "fingerprint": hashlib.sha256(repr(summary).encode()).hexdigest()[:16],
        "tracked_objects_per_op": counts["tracked_objects_per_op"],
    }


def test_op_footprint_does_not_depend_on_what_ran_before():
    """The same run in a fresh interpreter and after another deployment
    (still alive, its stores full of acks) keeps the same history and
    the same exact count: nothing an op keeps is shared across runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)), os.path.dirname(__file__)]
    )
    alone = subprocess.run(
        [sys.executable, "-c", "import json, test_gc_pacing as t; print(json.dumps(t.short_op_footprint()))"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    before = build_scatter_deployment(DeploymentParams(n_clients=8))
    workload = ClosedLoopWorkload(before.sim, before.clients, UniformKeys(400), read_fraction=0.1)
    workload.start()
    before.sim.run_for(3.0)
    after = short_op_footprint()
    assert len(workload.all_records()) > 1000
    assert after == json.loads(alone.stdout)


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
