"""The tracer: structured spans keyed on simulated time.

A :class:`Tracer` is bound to each :class:`~repro.sim.loop.Simulator`
constructed while it is installed (see :mod:`repro.obs.runtime`); the
simulator hands it a clock so spans are stamped with *virtual* time.
Experiments that build several simulators sequentially (sweeps) reuse
one tracer: each binding bumps the ``run`` index recorded on spans, so
a trace distinguishes "t=5.0 in the third deployment" from "t=5.0 in
the first".

Design rules that keep tracing free of side effects:

- A tracer never schedules events, sends messages, or consumes any
  simulator RNG stream — it only appends to Python lists.  Identical
  seeds therefore produce byte-identical traces, and installing a
  tracer cannot change any experiment's results.
- Span ids are a per-tracer sequence, assigned at :meth:`begin` in
  event-execution order, which is itself deterministic.
- Parent links are explicit (the instrumentation passes the parent
  span); there is no implicit "current span" stack, because simulator
  code interleaves hundreds of logical operations on one thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.loop import Simulator
    from repro.sim.network import NetworkStats

# NetworkStats fields the tracer reads as ``net.<field>`` deltas at each
# run-loop exit (``sent`` is counted per send by :meth:`Tracer.note_send`).
_FOLDED_NET_STATS = ("delivered", "dropped", "to_dead", "duplicated")


class Span:
    """One traced interval: ``kind`` from ``start`` until ``end``.

    ``end`` is None while the span is open (and stays None for spans
    still open at export time — e.g. a group frozen when the simulation
    stopped).  ``attrs`` is a flat dict of JSON-serializable values;
    :meth:`Tracer.finish` merges outcome attributes into it.
    """

    __slots__ = ("span_id", "parent_id", "kind", "run", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        kind: str,
        run: int,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.run = run
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (NaN while open)."""
        if self.end is None:
            return float("nan")
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration:.6f}s"
        return f"<Span #{self.span_id} {self.kind} {state}>"


class Tracer:
    """Records spans and metrics for one traced run (or sweep of runs).

    Truthiness is always True; instrumented code holds either a Tracer
    or ``None`` and guards every emit site with ``if tracer is not
    None`` (or ``if tracer:``), which is the disabled-mode fast path.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self.run = -1  # index of the current simulator binding
        self._clock: Callable[[], float] | None = None
        self._next_span_id = 1
        self._open = 0
        # (stats, values at the last flush) per network built while bound.
        self._networks: list[tuple["NetworkStats", dict[str, int]]] = []

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, sim: "Simulator") -> None:
        """Adopt ``sim``'s virtual clock; called by ``Simulator.__init__``.

        Each bind starts a new ``run`` so spans from successive
        deployments in one experiment remain distinguishable.
        """
        self._clock = lambda: sim._now
        self.run += 1

    @property
    def now(self) -> float:
        """Current virtual time of the most recently bound simulator."""
        if self._clock is None:
            return 0.0
        return self._clock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, kind: str, parent: Span | None = None, **attrs: Any) -> Span:
        """Open a span of ``kind`` at the current virtual time."""
        span = Span(
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            run=self.run,
            start=self.now,
            attrs=attrs,
        )
        self._next_span_id += 1
        self._open += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> None:
        """Close ``span`` at the current virtual time, merging ``attrs``.

        Closing an already-closed span is an error: it would mean two
        code paths both believed they owned the span's lifecycle.
        """
        if span.end is not None:
            raise RuntimeError(f"span {span!r} finished twice")
        span.end = self.now
        self._open -= 1
        if attrs:
            span.attrs.update(attrs)

    # ------------------------------------------------------------------
    # Network accounting
    # ------------------------------------------------------------------
    def note_send(self, msg: Any) -> None:
        """Count one network send, attributed to the protocol payload type.

        Transport envelopes (``.body``) and group frames (``.inner``) are
        unwrapped duck-typed so counts name the protocol message
        (``Accept``, ``ClientOpReq``) rather than the wrapper; RPC
        responses/errors carry arbitrary payloads and are bucketed as
        ``RpcResponse``/``RpcError``.
        """
        metrics = self.metrics
        metrics.inc("net.sent")
        kind = getattr(msg, "kind", None)
        if kind == "resp":
            name = "RpcResponse"
        elif kind == "err":
            name = "RpcError"
        else:
            body = getattr(msg, "body", msg)
            inner = getattr(body, "inner", None)
            name = type(body if inner is None else inner).__name__
        metrics.inc("net.msg." + name)

    def watch_network(self, stats: "NetworkStats") -> None:
        """Report ``stats`` as ``net.*`` counters; called by ``SimNetwork``."""
        self._networks.append(
            (stats, {name: getattr(stats, name) for name in _FOLDED_NET_STATS})
        )

    def flush(self, events: int) -> None:
        """Fold a run loop's work into the counters; called as it exits.

        ``sim.events`` gains the loop's event count and each ``net.*``
        counter what its network's stats gained since the last flush, so
        delivery stays free of tracer calls and a traced run dispatches
        exactly like an untraced one.
        """
        metrics = self.metrics
        metrics.inc("sim.events", events)
        for stats, seen in self._networks:
            for name in _FOLDED_NET_STATS:
                value = getattr(stats, name)
                if value != seen[name]:
                    metrics.inc("net." + name, value - seen[name])
                    seen[name] = value

    @property
    def open_spans(self) -> int:
        """Number of spans begun but not yet finished."""
        return self._open

    def spans_of(self, kind: str) -> list[Span]:
        """All spans of one kind, in begin order."""
        return [s for s in self.spans if s.kind == kind]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]
