#!/bin/sh
# Run the repro.perf microbenchmarks, rewrite BENCH_SIM.json with their
# in-run timing ratios and exact counts, and fail if any of the gates in
# repro.perf.microbench.GATES does not hold.
#
# Usage: scripts/check_perf.sh [extra `repro perf` flags]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m repro perf --json BENCH_SIM.json "$@"
