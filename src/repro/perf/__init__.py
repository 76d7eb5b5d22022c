"""Wall-clock performance layer for the simulation core.

The simulator's speed is what bounds every experiment's scale, so it is
measured like any other system property:

- :mod:`repro.perf.microbench` — microbenchmarks that report only
  ratios of two timings taken in the same run and exact counts, the
  ``GATES`` that bound them (``python -m repro perf``), and the
  ``BENCH_SIM.json`` emitter.
- :mod:`repro.perf.profile` — run any experiment under ``cProfile`` and
  report the hot frames (``python -m repro profile E6``).

The microbenchmarks fix seeds so the simulated work is identical run to
run; a timing ratio still moves a little with the host, a count does not.
"""

from repro.perf.microbench import (
    GATES,
    check_gates,
    run_microbenchmarks,
    write_bench_file,
)
from repro.perf.profile import profile_experiment

__all__ = [
    "GATES",
    "check_gates",
    "profile_experiment",
    "run_microbenchmarks",
    "write_bench_file",
]
