"""Deterministic discrete-event simulation kernel.

Everything in this reproduction runs on top of a single-threaded,
virtual-time event loop.  Determinism is a hard requirement: a given
(configuration, seed) pair must reproduce byte-identical histories so that
experiments are repeatable and failures are debuggable.  To that end:

- All timing flows through :class:`Simulator` (no wall-clock access).
- All randomness flows through named, seeded streams (``sim.rng("churn")``).
- Event ordering ties are broken by a monotonically increasing sequence
  number, never by object identity.
"""

from repro.sim.events import EventHandle, EventQueue
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
    WanLatencyMatrix,
)
from repro.sim.loop import Simulator, paced_gc
from repro.sim.network import NetworkStats, SimNetwork

__all__ = [
    "ConstantLatency",
    "EventHandle",
    "EventQueue",
    "LatencyModel",
    "LogNormalLatency",
    "NetworkStats",
    "SimNetwork",
    "Simulator",
    "UniformLatency",
    "WanLatencyMatrix",
    "paced_gc",
]
