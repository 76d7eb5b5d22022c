"""Unit tests for futures, processes, and the Node RPC layer."""

import gc
import weakref
from dataclasses import dataclass

import pytest

from repro.net import Future, Node, RpcError, RpcTimeout, all_of, spawn
from repro.sim import ConstantLatency, SimNetwork, Simulator


@dataclass(frozen=True)
class Ping:
    payload: str


@dataclass(frozen=True)
class Slow:
    delay: float


class TestFuture:
    def test_set_result(self):
        f = Future()
        assert not f.done
        f.set_result(42)
        assert f.done
        assert f.result() == 42

    def test_first_writer_wins(self):
        f = Future()
        f.set_result(1)
        f.set_result(2)
        f.set_exception(RuntimeError("late"))
        assert f.result() == 1

    def test_exception(self):
        f = Future()
        f.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            f.result()

    def test_result_before_done_raises(self):
        with pytest.raises(RuntimeError):
            Future().result()

    def test_callback_after_resolution_fires_immediately(self):
        f = Future()
        f.set_result("x")
        seen = []
        f.add_callback(lambda fut: seen.append(fut.result()))
        assert seen == ["x"]

    def test_all_of_collects_results(self):
        futures = [Future() for _ in range(3)]
        combined = all_of(futures)
        for i, f in enumerate(futures):
            f.set_result(i)
        assert combined.result() == [0, 1, 2]

    def test_all_of_empty(self):
        assert all_of([]).result() == []

    def test_all_of_propagates_first_failure(self):
        futures = [Future(), Future()]
        combined = all_of(futures)
        futures[1].set_exception(RuntimeError("bad"))
        assert combined.done
        with pytest.raises(RuntimeError):
            combined.result()


class TestSpawn:
    def test_straight_line_process(self):
        sim = Simulator()
        f = Future()

        def proc():
            value = yield f
            return value + 1

        result = spawn(sim, proc())
        sim.schedule(1.0, f.set_result, 10)
        sim.run()
        assert result.result() == 11

    def test_exception_thrown_into_process(self):
        sim = Simulator()
        f = Future()

        def proc():
            try:
                yield f
            except RpcTimeout:
                return "recovered"
            return "no exception"

        result = spawn(sim, proc())
        sim.schedule(1.0, f.set_exception, RpcTimeout("t"))
        sim.run()
        assert result.result() == "recovered"

    def test_unhandled_exception_fails_process_future(self):
        sim = Simulator()
        f = Future()

        def proc():
            yield f

        result = spawn(sim, proc())
        f.set_exception(ValueError("x"))
        sim.run()
        with pytest.raises(ValueError):
            result.result()

    def test_yielding_non_future_is_an_error(self):
        sim = Simulator()

        def proc():
            yield 42

        result = spawn(sim, proc())
        sim.run()
        with pytest.raises(TypeError):
            result.result()

    def test_non_future_yield_closes_the_generator_first(self):
        sim = Simulator()
        seen = []

        def proc():
            try:
                yield 42
            finally:
                seen.append("closed")

        result = spawn(sim, proc())
        result.add_callback(lambda f: seen.append(type(f.exception).__name__))
        sim.run()
        assert seen == ["closed", "TypeError"]

    def test_exception_arrives_at_the_yield_point(self):
        sim = Simulator()
        first, second = Future(), Future()
        trail = []

        def proc():
            trail.append("before")
            try:
                yield first
                trail.append("not reached")
            except RpcTimeout as exc:
                trail.append(f"caught {exc}")
            value = yield second
            return value

        result = spawn(sim, proc())
        sim.run()
        first.set_exception(RpcTimeout("t"))
        sim.run()
        assert trail == ["before", "caught t"] and not result.done
        second.set_result("later")
        sim.run()
        assert result.result() == "later"

    def test_resumes_are_loop_events_in_await_order(self):
        """One event per spawn and per resume, queued when the awaited
        future resolves, so a process interleaves with whatever else is
        scheduled at that instant by sequence number alone."""
        sim = Simulator()
        gate = Future()
        order = []

        def proc(tag):
            order.append(f"{tag} started")
            value = yield gate
            order.append(f"{tag} got {value}")

        seq = sim._queue._seq
        spawn(sim, proc("a"))
        spawn(sim, proc("b"))
        assert sim._queue._seq == seq + 2 and order == []
        sim.call_soon_fire(order.append, "between")
        sim.run()
        assert order == ["a started", "b started", "between"]

        seq = sim._queue._seq
        gate.set_result(7)
        assert sim._queue._seq == seq + 2 and len(order) == 3
        sim.call_soon_fire(order.append, "after")
        sim.run()
        assert order[3:] == ["a got 7", "b got 7", "after"]

    def test_already_resolved_future_still_resumes_through_the_loop(self):
        sim = Simulator()
        ready = Future()
        ready.set_result(1)
        order = []

        def proc():
            order.append((yield ready))

        spawn(sim, proc())
        sim.call_soon_fire(order.append, "queued first")
        sim.step()  # the spawn event: the process reaches its yield
        assert order == []
        sim.run()
        assert order == ["queued first", 1]

    def test_finished_process_is_freed_by_reference_count(self):
        """Nothing a process owns points back at its driver, so the
        generator dies with its last step, without the collector."""
        sim = Simulator()
        f = Future()

        def proc():
            return (yield f)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gen = proc()
            alive = weakref.ref(gen)
            result = spawn(sim, gen)
            del gen
            sim.schedule(1.0, f.set_result, 10)
            sim.run()
            assert result.result() == 10
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


class _Token:
    """A weak-referenceable timer argument."""


class EchoNode(Node):
    def __init__(self, node_id, sim, net):
        super().__init__(node_id, sim, net)
        self.on(Ping, self._on_ping)
        self.on(Slow, self._on_slow)

    def _on_ping(self, src, msg):
        if msg.payload == "explode":
            raise RuntimeError("handler failure")
        return f"echo:{msg.payload}"

    def _on_slow(self, src, msg):
        f = Future()
        self.set_timer(msg.delay, f.set_result, "slow done")
        return f


class TestNodeRpc:
    def _cluster(self):
        sim = Simulator(seed=0)
        net = SimNetwork(sim, latency=ConstantLatency(0.01))
        a = EchoNode("a", sim, net)
        b = EchoNode("b", sim, net)
        return sim, net, a, b

    def test_request_response(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Ping("hi"))
        sim.run()
        assert f.result() == "echo:hi"

    def test_rpc_timeout(self):
        sim, net, a, b = self._cluster()
        b.crash()
        f = a.request("b", Ping("hi"), timeout=0.5)
        sim.run()
        with pytest.raises(RpcTimeout):
            f.result()

    def test_remote_error_propagates(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Ping("explode"))
        sim.run()
        with pytest.raises(RpcError):
            f.result()

    def test_deferred_response_via_future(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(0.3), timeout=1.0)
        sim.run()
        assert f.result() == "slow done"
        assert sim.now >= 0.3 + 0.02

    def test_deferred_response_can_still_time_out(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(5.0), timeout=0.5)
        sim.run()
        with pytest.raises(RpcTimeout):
            f.result()

    def test_one_way_message(self):
        sim, net, a, b = self._cluster()
        seen = []
        b.on(str, lambda src, m: seen.append((src, m)))
        a.send("b", "oneway")
        sim.run()
        assert seen == [("a", "oneway")]

    def test_crashed_node_ignores_messages(self):
        sim, net, a, b = self._cluster()
        seen = []
        b.on(str, lambda src, m: seen.append(m))
        b.crash()
        a.send("b", "x")
        sim.run()
        assert seen == []

    def test_crashed_node_request_fails_fast(self):
        sim, net, a, b = self._cluster()
        a.crash()
        f = a.request("b", Ping("hi"))
        assert f.done
        with pytest.raises(RpcTimeout):
            f.result()

    def test_restart_hook_called(self):
        sim = Simulator()
        net = SimNetwork(sim)
        calls = []

        class N(Node):
            def on_restart(self):
                calls.append(self.sim.now)

        n = N("n", sim, net)
        n.crash()
        n.restart()
        assert calls == [0.0]
        assert n.alive

    def test_timers_cancelled_on_crash(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.set_timer(1.0, fired.append, "t")
        a.crash()
        sim.run()
        assert fired == []

    def test_restart_does_not_resurrect_old_timers(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.set_timer(1.0, fired.append, "old")
        a.crash()
        a.restart()
        sim.run()
        assert fired == []

    def test_no_handler_raises_rpc_error_to_caller(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", 3.14)  # no float handler registered
        sim.run()
        with pytest.raises(RpcError):
            f.result()

    def test_shutdown_unregisters(self):
        sim, net, a, b = self._cluster()
        b.shutdown()
        assert "b" not in net.addresses()

    def test_crash_fails_pending_rpc_futures(self):
        # A crashing caller must fail its in-flight RPCs immediately, not
        # leave them dangling until the timeout timer (which it cancelled).
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(5.0), timeout=30.0)
        sim.run_for(0.05)
        assert not f.done
        a.crash()
        assert f.done
        with pytest.raises(RpcTimeout):
            f.result()
        assert not a._pending_rpcs

    def test_fired_timers_are_pruned(self):
        """Once its timers fire, the node holds nothing of them: no
        handle, no heap entry, no callback argument."""
        sim, net, a, b = self._cluster()
        tokens = [_Token() for _ in range(300)]
        refs = [weakref.ref(token) for token in tokens]
        for i, token in enumerate(tokens):
            a.set_timer(0.001 * (i + 1), lambda _token: None, token)
        del tokens, token
        sim.run_for(1.0)
        assert [ref() for ref in refs] == [None] * 300

    def test_fired_timers_do_not_pile_up(self):
        """A node re-arming one timer (a heartbeat) keeps nothing of the
        rounds that already fired."""
        sim, net, a, b = self._cluster()
        for _ in range(200):
            token = _Token()
            ref = weakref.ref(token)
            a.set_timer(0.001, lambda _token: None, token)
            del token
            sim.run_for(0.002)
            assert ref() is None

    def test_crash_cancels_exactly_the_crashed_nodes_timers(self):
        sim, net, a, b = self._cluster()
        fired = []
        for i in range(5):
            a.set_timer(1.0 + i, fired.append, ("a", i))
            b.set_timer(1.0 + i, fired.append, ("b", i))
        early = a.set_timer(0.5, fired.append, ("a", "cancelled"))
        early.cancel()
        before = sim.pending_events
        a.crash()
        assert sim.pending_events == before - 5
        a.restart()
        a.set_timer(10.0, fired.append, ("a", "after restart"))
        sim.run()
        assert fired == [("b", i) for i in range(5)] + [("a", "after restart")]
        assert early.cancelled

    def test_cancelled_timer_releases_its_arguments(self):
        sim, net, a, b = self._cluster()
        token = _Token()
        ref = weakref.ref(token)
        handle = a.set_timer(5.0, lambda _token: None, token)
        del token
        handle.cancel()
        assert ref() is None
        assert sim.pending_events == 0

    def test_answered_rpc_releases_its_request_before_the_deadline(self):
        sim, net, a, b = self._cluster()
        b.set_timer(10.0, lambda: None)  # keeps the cancelled timeout off the heap's top
        msg = Ping("hi")
        ref = weakref.ref(msg)
        f = a.request("b", msg, timeout=30.0)
        del msg
        sim.run_for(0.1)
        assert f.result() == "echo:hi"
        assert ref() is None
