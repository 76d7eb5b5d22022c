"""The fuzz loop: sample → run → (on failure) shrink → write repro.

Iteration seeds derive from the master seed by stable hash, so a fuzz
campaign is fully described by ``(master_seed, n_iterations)``: the same
pair always visits the same plans in the same order and reaches the
same verdict.  Wall-clock time only decides *when to stop* in
``--minutes`` mode — it never influences what any iteration does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.check.plan import FuzzPlan, sample_plan
from repro.check.repro_file import dump_repro, repro_dict, repro_name
from repro.check.runner import FailureSummary, FuzzOutcome, run_plan
from repro.check.shrink import shrink_plan


@dataclass
class FuzzConfig:
    master_seed: int = 1
    iterations: int = 25
    minutes: float | None = None  # wall-clock budget; overrides iterations
    bug: str | None = None
    out_dir: str = "."
    shrink: bool = True
    max_shrink_runs: int = 150
    progress: Callable[[str], None] | None = None


@dataclass
class FuzzSummary:
    master_seed: int
    iterations_run: int = 0
    found: bool = False
    failure: FailureSummary | None = None
    failing_iteration: int | None = None
    repro_path: str | None = None
    shrink: dict[str, Any] = field(default_factory=dict)
    ops_total: int = 0
    events_total: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "master_seed": self.master_seed,
            "iterations_run": self.iterations_run,
            "found": self.found,
            "failure": self.failure.to_dict() if self.failure else None,
            "failing_iteration": self.failing_iteration,
            "repro_path": self.repro_path,
            "shrink": self.shrink,
            "ops_total": self.ops_total,
            "events_total": self.events_total,
            "wall_seconds": round(self.wall_seconds, 2),
        }


def _describe(plan: FuzzPlan, outcome: FuzzOutcome) -> str:
    verdict = "FAIL" if outcome.failed else "ok"
    note = f" [{outcome.failure.kind}:{outcome.failure.name}]" if outcome.failed else ""
    return (
        f"iter {plan.iteration} seed={plan.sim_seed} nodes={plan.n_nodes} "
        f"groups={plan.n_groups} faults={len(plan.schedule)} ops={len(plan.ops)} "
        f"completed={outcome.ops_completed} -> {verdict}{note}"
    )


def run_fuzz(config: FuzzConfig) -> FuzzSummary:
    """Run a fuzz campaign; stop at the first failure (after shrinking it)."""
    say = config.progress or (lambda _line: None)
    summary = FuzzSummary(master_seed=config.master_seed)
    started = time.monotonic()
    iteration = 0
    while True:
        if config.minutes is not None:
            if time.monotonic() - started >= config.minutes * 60.0:
                break
        elif iteration >= config.iterations:
            break

        plan = sample_plan(config.master_seed, iteration)
        outcome = run_plan(plan, bug=config.bug)
        summary.iterations_run += 1
        summary.ops_total += outcome.ops_total
        summary.events_total += outcome.events
        say(_describe(plan, outcome))

        if outcome.failed:
            _finalize_failure(config, summary, iteration, plan, outcome, say)
            break

        iteration += 1

    summary.wall_seconds = time.monotonic() - started
    return summary


def _finalize_failure(
    config: FuzzConfig,
    summary: FuzzSummary,
    iteration: int,
    plan: FuzzPlan,
    outcome: FuzzOutcome,
    say: Callable[[str], None],
) -> None:
    """Shrink a failing plan and write its repro file into ``summary``.

    Shared by the serial loop and the sharded runner so a campaign's
    verdict — failure summary, shrink stats, repro file contents — is
    identical however the iterations were scheduled.
    """
    summary.found = True
    summary.failing_iteration = iteration
    final_plan, failure = plan, outcome.failure
    if config.shrink:
        say(
            f"shrinking: {len(plan.schedule)} faults, {len(plan.ops)} ops "
            f"(budget {config.max_shrink_runs} runs)"
        )

        def still_fails(candidate: FuzzPlan) -> bool:
            return run_plan(candidate, bug=config.bug).failed

        final_plan, stats = shrink_plan(
            plan, still_fails, max_runs=config.max_shrink_runs
        )
        failure = run_plan(final_plan, bug=config.bug).failure or outcome.failure
        summary.shrink = stats.to_dict()
        say(
            f"shrunk to {len(final_plan.schedule)} faults, "
            f"{len(final_plan.ops)} ops in {stats.runs} runs"
        )
    summary.failure = failure
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / repro_name(plan.sim_seed, config.bug)
    dump_repro(
        repro_dict(final_plan, failure, config.bug, shrink=summary.shrink), path
    )
    summary.repro_path = str(path)
    say(f"wrote {path}")


def _fuzz_shard(args: tuple[int, tuple[int, ...], str | None]) -> dict[str, Any]:
    """Worker entry point: run a strided subset of iterations, no shrinking.

    Plans derive purely from ``(master_seed, iteration)``, so running a
    subset in a different process changes nothing about what any
    iteration does.  Stops at the shard's first failure; the parent
    takes the minimum failing iteration across shards — which is by
    construction the iteration the serial loop would have stopped at —
    and re-runs only that one locally to shrink and write the repro.
    """
    master_seed, iterations, bug = args
    tally: dict[str, Any] = {
        "failing_iteration": None,
        "iterations_run": 0,
        "ops_total": 0,
        "events_total": 0,
    }
    for iteration in iterations:
        plan = sample_plan(master_seed, iteration)
        outcome = run_plan(plan, bug=bug)
        tally["iterations_run"] += 1
        tally["ops_total"] += outcome.ops_total
        tally["events_total"] += outcome.events
        if outcome.failed:
            tally["failing_iteration"] = iteration
            break
    return tally


def run_fuzz_sharded(config: FuzzConfig, workers: int) -> FuzzSummary:
    """Shard a fixed-iteration campaign across worker processes.

    Worker ``w`` of ``N`` scans iterations ``w, w+N, w+2N, ...`` in
    order.  The merged verdict — found / failing iteration / failure /
    repro file — equals the serial campaign's, because the minimum
    failing iteration over all shards is exactly the first failing
    iteration overall.  Only the bookkeeping differs: shards keep
    running until their own first failure, so ``iterations_run`` /
    ``ops_total`` may exceed the serial campaign's (which stops at the
    global first failure).  Wall-clock budgets (``minutes``) are
    inherently schedule-dependent, so they stay on the serial path.
    """
    if workers <= 1 or config.minutes is not None:
        return run_fuzz(config)
    say = config.progress or (lambda _line: None)
    summary = FuzzSummary(master_seed=config.master_seed)
    started = time.monotonic()
    shards = [
        (config.master_seed, tuple(range(w, config.iterations, workers)), config.bug)
        for w in range(workers)
        if range(w, config.iterations, workers)
    ]
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness.sweep import _ensure_child_pythonpath

    _ensure_child_pythonpath()
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(shards), mp_context=ctx) as pool:
        tallies = list(pool.map(_fuzz_shard, shards))
    for tally in tallies:
        summary.iterations_run += tally["iterations_run"]
        summary.ops_total += tally["ops_total"]
        summary.events_total += tally["events_total"]
    failing = [t["failing_iteration"] for t in tallies if t["failing_iteration"] is not None]
    if failing:
        iteration = min(failing)
        plan = sample_plan(config.master_seed, iteration)
        outcome = run_plan(plan, bug=config.bug)
        say(_describe(plan, outcome))
        _finalize_failure(config, summary, iteration, plan, outcome, say)
    summary.wall_seconds = time.monotonic() - started
    return summary


def replay(data: dict[str, Any]) -> tuple[bool, FailureSummary | None, FailureSummary]:
    """Re-execute a loaded repro file.

    Returns (reproduced, observed_failure, recorded_failure): reproduced
    means the run failed again with the same kind and name.
    """
    from repro.check.repro_file import failure_of, plan_of

    plan = plan_of(data)
    recorded = failure_of(data)
    outcome = run_plan(plan, bug=data.get("demo_bug"))
    observed = outcome.failure
    reproduced = (
        observed is not None
        and observed.kind == recorded.kind
        and observed.name == recorded.name
    )
    return reproduced, observed, recorded
