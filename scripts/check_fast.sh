#!/bin/sh
# Fast tier-1 check: the full test suite minus tests marked `slow`
# (multi-seed nemesis schedules, the E1-E21 claim and table sweep, and
# fuzz long runs).  Use the plain `PYTHONPATH=src python -m pytest -x -q`
# invocation for the full tier.
set -e
cd "$(dirname "$0")/.."
# Fail loudly if the layout changed and the PYTHONPATH below would
# silently point at nothing (pytest would then collect against an
# installed or stale copy of repro, or fail with confusing imports).
if [ ! -f src/repro/__init__.py ]; then
    echo "check_fast.sh: src/repro/__init__.py not found under $(pwd);" >&2
    echo "check_fast.sh: cannot set PYTHONPATH=src — aborting." >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m pytest -x -q -m "not slow" "$@"
