"""Closed-loop workload driver shared by the Scatter and Chord backends.

Each client issues one operation at a time (so each client's history is
sequential — what the linearizability checker assumes) and immediately
issues the next when the previous completes.  Values written are unique
per (client, op) so the checker can identify reads-from relationships.
"""

from __future__ import annotations

from typing import Protocol

from repro.net.futures import Future, spawn
from repro.sim.loop import Simulator
from repro.workloads.keys import KeySpace


class WorkloadClient(Protocol):
    """The client API both backends expose."""

    node_id: str
    records: list

    def get(self, key: str | int) -> Future: ...

    def put(self, key: str | int, value: object) -> Future: ...


class ClosedLoopWorkload:
    """N clients looping get/put over a key space until stopped."""

    def __init__(
        self,
        sim: Simulator,
        clients: list[WorkloadClient],
        keys: KeySpace,
        read_fraction: float = 0.5,
        think_time: float = 0.0,
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.sim = sim
        self.clients = clients
        self.keys = keys
        self.read_fraction = read_fraction
        self.think_time = think_time
        self.rng = sim.rng("workload")
        self._running = False
        self._op_counter = 0

    def start(self) -> None:
        self._running = True
        for client in self.clients:
            spawn(self.sim, self._client_loop(client))

    def stop(self) -> None:
        self._running = False

    def _client_loop(self, client: WorkloadClient):
        while self._running and client.alive:
            key = self.keys.sample_ring_id(self.rng)
            if self.rng.random() < self.read_fraction:
                future = client.get(key)
            else:
                self._op_counter += 1
                value = f"{client.node_id}#{self._op_counter}"
                future = client.put(key, value)
            try:
                yield future
            except Exception:
                pass  # the record captures the failure; keep going
            if self.think_time > 0:
                pause = Future()
                self.sim.schedule(self.think_time * self.rng.uniform(0.5, 1.5), pause.set_result, None)
                yield pause

    def all_records(self) -> list:
        return [record for client in self.clients for record in client.records]
