#!/usr/bin/env python3
"""Regenerate benchmarks/results/: one table file per experiment.

Quick mode (the default) writes ``eN.txt``, the tables tier-1 compares
with a rerun (tests/test_experiments_smoke.py); ``--full`` writes
``full_eN.txt``, the paper-scale tables EXPERIMENTS.md records (tens of
minutes serially).  ``--workers N`` shards whole experiments across
processes through ``repro.harness.sweep.map_cells``; ``--workers 1``
runs them in-process.  Every table is byte-identical either way; only
the ``wall-clock:`` footer differs.

Run:  python scripts/run_experiments.py [--full] [--workers N] [E1 e05 7 ...]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.experiments import experiment_key, experiment_names
from repro.harness.sweep import SweepCell, map_cells

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "results")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("experiments", nargs="*", help="e.g. E1 e05 7 (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale runs, written to full_eN.txt")
    parser.add_argument("--workers", type=int, default=1,
                        help="shard experiments across N processes")
    args = parser.parse_args()
    try:
        names = [experiment_key(name) for name in args.experiments or experiment_names()]
    except KeyError as exc:
        sys.exit(exc.args[0])
    prefix = "full_" if args.full else ""
    cells = [SweepCell(experiment=name, seed=None, quick=not args.full) for name in names]
    for cell in map_cells(cells, args.workers):
        path = os.path.join(RESULTS_DIR, f"{prefix}{cell.cell.experiment.lower()}.txt")
        with open(path, "w") as f:
            f.write(cell.rendered + "\n")
        print(cell.rendered + "\n", flush=True)


if __name__ == "__main__":
    main()
