"""Futures and generator-based processes for simulated protocol code.

Protocol logic like "ask a quorum, wait for replies, then decide" reads
far better as straight-line code than as a callback pyramid.  ``spawn``
drives a generator that yields :class:`Future` objects: the process
suspends until the future resolves, then resumes with its value (or has
the failure raised into it at the yield point).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from repro.sim.loop import Simulator


class RpcTimeout(Exception):
    """An RPC did not receive a response within its timeout."""


class RpcError(Exception):
    """The remote handler raised; carries the remote error text."""


class Future:
    """Single-assignment result cell.

    Exactly one of :meth:`set_result` / :meth:`set_exception` may be
    called; later calls are ignored (first writer wins), which is the
    behaviour wanted for races like "response vs timeout".
    """

    __slots__ = ("_done", "_result", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("future not resolved")
        if self._exception is not None:
            raise self._exception
        return self._result

    def set_result(self, value: Any) -> None:
        if self._done:
            return
        self._done = True
        self._result = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            return
        self._done = True
        self._exception = exc
        self._fire()

    def add_callback(self, fn: Callable[[Future], None]) -> None:
        """Call ``fn(self)`` when resolved (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


def all_of(futures: Iterable[Future]) -> Future:
    """Future resolving to the list of all results, or the first failure."""
    futures = list(futures)
    combined = Future()
    if not futures:
        combined.set_result([])
        return combined
    remaining = [len(futures)]

    def on_done(_: Future) -> None:
        if combined.done:
            return
        for f in futures:
            if f.done and f.exception is not None:
                combined.set_exception(f.exception)
                return
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.set_result([f.result() for f in futures])

    for f in futures:
        f.add_callback(on_done)
    return combined


Proc = Generator[Future, Any, Any]


class _Process:
    """One running generator and the future its result resolves.

    Nothing the process owns points back at it: the only references are
    the bound :meth:`step` in a heap entry and the bound :meth:`resume`
    in the awaited future's callback list, and each is dropped when it
    runs.  A finished process is therefore freed by reference count,
    generator and ``done`` future included, with nothing left for the
    cyclic collector.
    """

    __slots__ = ("_sim", "_gen", "_done")

    def __init__(self, sim: Simulator, gen: Proc, done: Future) -> None:
        self._sim = sim
        self._gen = gen
        self._done = done

    def step(self, send_value: Any, throw_exc: BaseException | None) -> None:
        gen = self._gen
        try:
            if throw_exc is not None:
                waited = gen.throw(throw_exc)
            else:
                waited = gen.send(send_value)
        except StopIteration as stop:
            self._done.set_result(stop.value)
            return
        except BaseException as exc:  # process crashed: propagate
            self._done.set_exception(exc)
            return
        if not isinstance(waited, Future):
            gen.close()
            self._done.set_exception(
                TypeError(f"process yielded {type(waited).__name__}, expected Future")
            )
            return
        waited.add_callback(self.resume)

    def resume(self, waited: Future) -> None:
        # A failed future's result is still None: first writer wins.
        self._sim.call_soon_fire(self.step, waited._result, waited._exception)


def spawn(sim: Simulator, gen: Proc) -> Future:
    """Drive a generator process; resolve the returned future with its result.

    The generator yields Futures.  When a yielded future resolves with a
    value the generator resumes with that value; when it resolves with an
    exception, the exception is thrown into the generator at the yield
    point so it can ``try/except`` failures like timeouts.  Each resume
    happens via ``sim.call_soon_fire`` so process steps interleave with
    message deliveries in deterministic event order (resumes are never
    cancelled, so the fire-and-forget path applies).

    The driver is a :class:`_Process`, not a closure: a function that
    names itself sits in a reference cycle with its own cells, and every
    finished process would wait for the cyclic collector.
    """
    done = Future()
    sim.call_soon_fire(_Process(sim, gen, done).step, None, None)
    return done
