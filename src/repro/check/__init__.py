"""repro.check — deterministic-simulation fuzzing for Scatter.

Composes the seeded simulator (`repro.sim`), fault primitives
(`repro.faults`), and the linearizability checker (`repro.analysis`)
into an automated bug-finder: randomized deployments + scripted
workloads + mutated fault schedules, with a continuously-evaluated
invariant registry and a delta-debugging shrinker that reduces any
failure to a minimal, replayable ``repro-<seed>.json``
(``repro-<bug>-<seed>.json`` when a demo bug was planted).

Entry points: ``python -m repro fuzz`` (see `repro.cli`) or
:func:`repro.check.fuzzer.run_fuzz` programmatically.
"""

from repro.check.fuzzer import (
    FuzzConfig,
    FuzzSummary,
    replay,
    run_fuzz,
    run_fuzz_sharded,
)
from repro.check.invariants import (
    ALL_INVARIANTS,
    CONTINUOUS_INVARIANTS,
    EVENTUAL_INVARIANTS,
    QUIESCENT_INVARIANTS,
    InvariantViolation,
)
from repro.check.monitor import InvariantMonitor
from repro.check.plan import FaultEntry, FuzzPlan, OpEntry, iteration_seed, sample_plan
from repro.check.repro_file import dump_repro, load_repro, repro_bytes, repro_dict
from repro.check.runner import FailureSummary, FuzzOutcome, run_plan
from repro.check.shrink import ShrinkStats, shrink_plan

__all__ = [
    "ALL_INVARIANTS",
    "CONTINUOUS_INVARIANTS",
    "EVENTUAL_INVARIANTS",
    "FailureSummary",
    "FaultEntry",
    "FuzzConfig",
    "FuzzOutcome",
    "FuzzPlan",
    "FuzzSummary",
    "InvariantMonitor",
    "InvariantViolation",
    "OpEntry",
    "QUIESCENT_INVARIANTS",
    "ShrinkStats",
    "dump_repro",
    "iteration_seed",
    "load_repro",
    "repro_bytes",
    "repro_dict",
    "replay",
    "run_fuzz",
    "run_fuzz_sharded",
    "run_plan",
    "sample_plan",
    "shrink_plan",
]
