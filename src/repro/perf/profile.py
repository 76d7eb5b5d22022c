"""Run an experiment under cProfile and report the hot frames.

``python -m repro profile E6 --top 20`` answers "where does the wall
clock go" for any registered experiment — the tool that guided the
simulator hot-path optimization and should guide the next one.
"""

from __future__ import annotations

import cProfile
import io
import pstats

VALID_SORTS = ("tottime", "cumulative", "ncalls")


def profile_experiment(
    name: str,
    quick: bool = True,
    seed: int | None = None,
    sort: str = "tottime",
    top: int = 25,
):
    """Profile one experiment run; returns ``(result, stats_text)``.

    ``name`` is an experiment name like ``"E6"`` or ``"e06"`` (see
    ``repro.harness.experiments.run_experiment``).  ``sort`` is a
    pstats sort key: ``tottime`` shows the hot frames themselves,
    ``cumulative`` shows which subsystems the time flows through.
    """
    # Lazy import: keeps `repro.perf` importable without the full stack.
    from repro.harness.experiments import experiment_key, run_experiment

    key = experiment_key(name)
    if sort not in VALID_SORTS:
        raise ValueError(f"sort must be one of {VALID_SORTS}, got {sort!r}")

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(key, quick=quick, seed=seed)
    finally:
        profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    return result, buf.getvalue()
