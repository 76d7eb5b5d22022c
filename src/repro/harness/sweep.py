"""Parallel sweep runner: shard (experiment, seed) cells across processes.

A *sweep* runs one experiment over many seeds (or many experiments at
their default seeds) and merges the per-cell tables into a single
:class:`ExperimentResult`.  The cells are embarrassingly parallel — each
one builds its own simulator from ``(experiment, seed)`` and nothing
else — so the runner shards them across worker processes with
:class:`~concurrent.futures.ProcessPoolExecutor`.

The contract that makes this safe to use for paper tables:

* **Byte-identical merges.**  The merged result is assembled from the
  per-cell rows in cell-index order, never completion order, so
  ``run_sweep(..., workers=8).merged.table()`` is byte-for-byte the
  string ``run_sweep(..., workers=1)`` produces.  Worker count and OS
  scheduling can change *when* a cell runs, never *what* it computes or
  *where* its rows land.  ``tests/test_sweep_determinism.py`` holds this
  line.

* **Deterministic seed derivation.**  When the caller asks for *n*
  derived seeds instead of passing them explicitly, each cell's seed is
  a pure function of ``(master_seed, experiment, cell_index)`` via the
  process-independent FNV hash used for simulator RNG streams — no
  worker identity, no scheduling order, no wall clock.  Distinct cells
  get distinct seeds (64-bit FNV; the property test hammers this).

* **Spawn, not fork.**  Workers use the ``spawn`` start method so each
  cell runs in a pristine interpreter: no inherited module state, no
  accidentally-shared caches, and identical behavior on platforms where
  fork is unavailable or unsafe.

Wall-clock numbers (per-cell and total) ride in ``merged.perf`` — the
rendered footer — and are excluded from :meth:`ExperimentResult.table`,
exactly like single-experiment perf footers.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.harness.results import ExperimentResult
from repro.sim.loop import _stable_hash


def derive_seed(master_seed: int, experiment: str, index: int) -> int:
    """Deterministic per-cell seed: pure in (master, experiment, index).

    Uses the same process-independent FNV-1a hash the simulator uses for
    named RNG streams, so a sweep is fully described by its master seed
    and grid — re-running it anywhere reproduces every cell.  The full
    64-bit range keeps distinct cells collision-free in practice.
    """
    return _stable_hash(f"sweep:{master_seed}:{experiment}:{index}")


def cell_fingerprint(table: str) -> str:
    """Stable 64-bit digest of a cell's deterministic table text.

    Every RNG draw an experiment makes feeds its rows, so two runs with
    identical fingerprints consumed identical random streams — this is
    the cheap cross-process equality check the determinism suite (and
    the ``--fingerprints`` CLI flag) compares.
    """
    return f"{_stable_hash(table):016x}"


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: an experiment at one seed.

    ``seed=None`` means "the experiment's registered default" — used
    when sharding whole experiments (``scripts/run_experiments.py``)
    rather than seeds of a single experiment.
    """

    experiment: str
    seed: int | None
    quick: bool = True


@dataclass
class CellResult:
    """What comes back from one cell, pickled across the process gap."""

    index: int
    cell: SweepCell
    columns: list[str]
    rows: list[dict]
    title: str
    notes: str
    table: str
    rendered: str
    perf: dict
    fingerprint: str


@dataclass
class SweepResult:
    experiment: str
    workers: int
    cells: list[CellResult] = field(default_factory=list)
    merged: ExperimentResult | None = None

    def fingerprints(self) -> list[tuple[int | None, str]]:
        """(seed, fingerprint) per cell, in cell order."""
        return [(c.cell.seed, c.fingerprint) for c in self.cells]


def _run_cell(payload: tuple[int, SweepCell]) -> CellResult:
    """Worker entry point: run one cell and ship its result home.

    Top-level (picklable) and self-contained: a spawned interpreter
    imports this module, runs the experiment, and returns plain data.
    """
    index, cell = payload
    from repro.harness.experiments import run_experiment

    result = run_experiment(cell.experiment, quick=cell.quick, seed=cell.seed)
    table = result.table()
    return CellResult(
        index=index,
        cell=cell,
        columns=list(result.columns),
        rows=list(result.rows),
        title=result.title,
        notes=result.notes,
        table=table,
        rendered=result.render(),
        perf=dict(result.perf),
        fingerprint=cell_fingerprint(table),
    )


def _ensure_child_pythonpath() -> None:
    """Make sure spawned workers can ``import repro``.

    Spawn starts a fresh interpreter that inherits the environment but
    not ``sys.path`` mutations (conftest path inserts, ``pip install
    -e``-less source trees).  Prepending this source root to PYTHONPATH
    covers every launch style; a no-op when it is already there.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_root, *parts])


def map_cells(cells: list[SweepCell], workers: int) -> list[CellResult]:
    """Run every cell, serially or across processes; results in cell order.

    ``workers <= 1`` runs in-process with no multiprocessing machinery
    at all — the reference execution the parallel path must match.
    ``Executor.map`` returns results in submission order regardless of
    completion order, which is what keeps merges order-deterministic.
    """
    indexed = list(enumerate(cells))
    if workers <= 1:
        return [_run_cell(item) for item in indexed]
    import multiprocessing as mp

    _ensure_child_pythonpath()
    ctx = mp.get_context("spawn")
    n = min(workers, len(indexed)) or 1
    with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
        return list(pool.map(_run_cell, indexed))


def run_sweep(
    experiment: str,
    seeds: list[int],
    quick: bool = True,
    workers: int = 1,
) -> SweepResult:
    """Run ``experiment`` once per seed and merge the tables.

    The merged result prefixes every row with its ``seed`` column and
    concatenates cells in seed-list order.  Its :meth:`~repro.harness.
    results.ExperimentResult.table` output is independent of
    ``workers`` — that is the whole point.
    """
    cells = [SweepCell(experiment=experiment, seed=s, quick=quick) for s in seeds]
    results = map_cells(cells, workers)
    merged = ExperimentResult(
        experiment=experiment,
        title=f"{experiment} sweep over {len(seeds)} seeds",
        columns=["seed"] + (results[0].columns if results else []),
        notes=results[0].notes if results else "",
    )
    for cell_result in results:
        for row in cell_result.rows:
            merged.add(seed=cell_result.cell.seed, **row)
    merged.perf = {
        "workers": workers,
        "cells": len(cells),
        "cell_wall_s": round(
            sum(c.perf.get("wall_s", 0.0) for c in results), 2
        ),
    }
    return SweepResult(experiment=experiment, workers=workers, cells=results, merged=merged)
