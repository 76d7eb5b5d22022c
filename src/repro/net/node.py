"""Addressable protocol endpoint with typed messages and RPC."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.futures import Future, RpcError, RpcTimeout
from repro.sim.events import EventHandle
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork

_rpc_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class _Envelope:
    """Wire wrapper.  kind is 'msg' (one-way), 'req', 'resp', or 'err'."""

    kind: str
    rpc_id: int | None
    body: Any


class Node:
    """Base class for every simulated process (replica, client, DHT node).

    Subclasses register handlers per message type with :meth:`on`.  A
    handler receives ``(src, msg)``.  For RPC requests the handler's
    return value is the response; returning a :class:`Future` defers the
    response until the future resolves; raising sends an error response.

    Crash/restart is modelled with :meth:`crash` / :meth:`restart`: a
    crashed node loses all volatile state via the subclass hook
    :meth:`on_restart` and its timers are cancelled.
    """

    def __init__(self, node_id: str, sim: Simulator, net: SimNetwork) -> None:
        self.node_id = node_id
        self.sim = sim
        self.net = net
        self.alive = True
        # Simulated durable disk (repro.storage.NodeDisk), attached by
        # subclasses that model durability; None = no storage model.
        self.disk = None
        self._handlers: dict[type, Callable[[str, Any], Any]] = {}
        self._pending_rpcs: dict[int, Future] = {}
        self._timers: list[EventHandle] = []
        net.register(node_id, self._on_network_message)

    # ------------------------------------------------------------------
    # Handler registration
    # ------------------------------------------------------------------
    def on(self, msg_type: type, handler: Callable[[str, Any], Any]) -> None:
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------------
    # One-way messages
    # ------------------------------------------------------------------
    def send(self, dst: str, msg: Any) -> None:
        if not self.alive:
            return
        self.net.send(self.node_id, dst, _Envelope("msg", None, msg))

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def request(self, dst: str, msg: Any, timeout: float = 1.0) -> Future:
        """Send a request; future resolves with the response value.

        Fails with :class:`RpcTimeout` after ``timeout`` seconds or with
        :class:`RpcError` if the remote handler raised.
        """
        future = Future()
        if not self.alive:
            future.set_exception(RpcTimeout(f"{self.node_id} is down"))
            return future
        rpc_id = next(_rpc_ids)
        self._pending_rpcs[rpc_id] = future
        self.net.send(self.node_id, dst, _Envelope("req", rpc_id, msg))
        timer = self.sim.schedule(timeout, self._on_rpc_timeout, rpc_id, dst, msg)
        future.add_callback(lambda _f: timer.cancel())
        return future

    def _on_rpc_timeout(self, rpc_id: int, dst: str, msg: Any) -> None:
        future = self._pending_rpcs.pop(rpc_id, None)
        if future is not None:
            future.set_exception(RpcTimeout(f"rpc {type(msg).__name__} to {dst} timed out"))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a callback that is suppressed if the node crashes."""

        def guarded(*inner: Any) -> None:
            if self.alive:
                fn(*inner)

        handle = self.sim.schedule(delay, guarded, *args)
        self._timers.append(handle)
        if len(self._timers) > 32:
            # Drop cancelled handles and ones already in the past (fired).
            # Handles at exactly `now` may still be pending this tick, so
            # they are kept until time advances.  A node has a handful of
            # live timers; at the old bound of 256, fired handles and
            # their heap entries were half of all collector-tracked
            # objects on a 2,000-node ring (182,073 of them, 34 MB).
            now = self.sim.now
            self._timers = [t for t in self._timers if not t.cancelled and t.time >= now]
        return handle

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop timers, pending RPCs, and go silent.

        With a disk attached, the crash is a power failure: the disk
        keeps only what reached a completed fsync — the un-fsynced WAL
        suffix is lost and must be recovered through the protocol.
        """
        if not self.alive:
            return
        self.alive = False
        self.net.set_down(self.node_id)
        if self.disk is not None:
            self.disk.power_failure()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        # Fail callers waiting on in-flight RPCs instead of leaving their
        # futures pending forever (the response would be dropped anyway).
        pending = list(self._pending_rpcs.values())
        self._pending_rpcs.clear()
        for future in pending:
            if not future.done:
                future.set_exception(RpcTimeout(f"{self.node_id} crashed"))

    def restart(self) -> None:
        """Recover with volatile state reset (see :meth:`on_restart`)."""
        if self.alive:
            return
        self.alive = True
        self.net.set_up(self.node_id)
        self.on_restart()

    def on_restart(self) -> None:
        """Subclass hook: rebuild volatile state from durable state."""

    def shutdown(self) -> None:
        """Permanent departure: unregister from the network."""
        self.crash()
        self.net.unregister(self.node_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _on_network_message(self, src: str, envelope: _Envelope) -> None:
        if not self.alive:
            return
        if envelope.kind == "msg":
            self._dispatch(src, envelope.body)
        elif envelope.kind == "req":
            self._handle_request(src, envelope)
        elif envelope.kind == "resp":
            future = self._pending_rpcs.pop(envelope.rpc_id, None)
            if future is not None:
                future.set_result(envelope.body)
        elif envelope.kind == "err":
            future = self._pending_rpcs.pop(envelope.rpc_id, None)
            if future is not None:
                future.set_exception(RpcError(str(envelope.body)))

    def _dispatch(self, src: str, msg: Any) -> Any:
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise RpcError(f"{self.node_id}: no handler for {type(msg).__name__}")
        return handler(src, msg)

    def _handle_request(self, src: str, envelope: _Envelope) -> None:
        rpc_id = envelope.rpc_id
        try:
            result = self._dispatch(src, envelope.body)
        except Exception as exc:
            self.net.send(self.node_id, src, _Envelope("err", rpc_id, f"{exc}"))
            return
        if isinstance(result, Future):
            result.add_callback(lambda f: self._reply_from_future(src, rpc_id, f))
        else:
            self.net.send(self.node_id, src, _Envelope("resp", rpc_id, result))

    def _reply_from_future(self, src: str, rpc_id: int | None, future: Future) -> None:
        if not self.alive:
            return
        if future.exception is not None:
            self.net.send(self.node_id, src, _Envelope("err", rpc_id, f"{future.exception}"))
        else:
            self.net.send(self.node_id, src, _Envelope("resp", rpc_id, future.result()))
