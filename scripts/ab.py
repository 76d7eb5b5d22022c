#!/usr/bin/env python3
"""A/B one perf-ledger workload: the working tree against a git revision.

    python scripts/ab.py REV --workload W [--pairs N] [--seed S] [--seconds T]

``git archive REV src benchmarks/ledger`` is unpacked into a temporary
directory, and ``benchmarks/ledger/run.py --workload W --trace 0`` runs
in pairs, once from the working tree and once from that copy, each run
in a fresh interpreter; the side that goes first alternates from pair
to pair, so drift on the host falls on both.  For every end-to-end
metric in BENCHMARK.json the script prints each pair's ratio (working
tree / REV), the median ratio, how many pairs the working tree won and
each side's median value, then both simulation fingerprints.

Exit status: 0 when the fingerprints are equal, 1 when they differ,
2 when a run fails or REV cannot be archived.  Nothing is written
under ``benchmarks/`` (bar the interpreter's own ``__pycache__``): the
copy and the runs' JSON live in a temporary directory, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "ledger", "run.py")


def archive(rev: str, into: str) -> None:
    """Unpack ``rev``'s ``src`` and ``benchmarks/ledger`` into ``into``."""
    tar_path = os.path.join(into, "rev.tar")
    with open(tar_path, "wb") as out:
        subprocess.run(["git", "archive", rev, "src", "benchmarks/ledger"],
                       cwd=ROOT, stdout=out, check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into)
    os.remove(tar_path)


def run_once(root: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    """One untraced run of ``workload`` from the checkout at ``root``:
    its end-to-end metric values and its simulation fingerprint."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, RUN), "--workload", workload, "--trace", "0",
         "--seed", str(seed), "--seconds", repr(seconds), "--json", out],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not os.path.exists(out):
        raise RuntimeError(f"{root}: run.py exited with code {done.returncode} and no result")
    contract = json.loads(lines[-1])
    with open(out) as f:
        untraced = json.load(f)["workloads"][workload]["untraced"]
    return {
        "metrics": {name: m["value"] for name, m in contract["metrics"].items()},
        "fingerprint": untraced["fingerprint"],
        "failed": contract["failed"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = os.path.join(tmp, "rev")
        os.mkdir(base)
        try:
            archive(args.rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"ab.py: cannot archive {args.rev}: {exc}", file=sys.stderr)
            return 2
        sides = {"new": ROOT, "old": base}
        runs: dict[str, list[dict]] = {"new": [], "old": []}
        for pair in range(args.pairs):
            order = ("new", "old") if pair % 2 == 0 else ("old", "new")
            for side in order:
                out = os.path.join(tmp, f"{side}-{pair}.json")
                try:
                    runs[side].append(run_once(sides[side], args.workload, args.seed,
                                               args.seconds, out))
                except RuntimeError as exc:
                    print(f"ab.py: {exc}", file=sys.stderr)
                    return 2

    print(f"ab: working tree vs {args.rev} on {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {args.pairs} pair(s); ratio = working tree / {args.rev}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        ratios, wins = [], 0
        for new, old in zip(runs["new"], runs["old"]):
            a, b = new["metrics"][name], old["metrics"][name]
            ratios.append(a / b if b else float("nan"))
            wins += a < b if lower else a > b
        medians = [statistics.median(r["metrics"][name] for r in runs[side]) for side in sides]
        print(f"  {name:18s} {m['better']:6s} "
              + " ".join(f"{r:6.3f}" for r in ratios)
              + f"  median {statistics.median(ratios):6.3f}  wins {wins}/{args.pairs}"
              + f"  ({medians[0]:.4g} vs {medians[1]:.4g} {m['unit']})")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"  failed ops: working tree {failed['new']}, {args.rev} {failed['old']}")
    prints = {side: sorted({r["fingerprint"] for r in rs}) for side, rs in runs.items()}
    same = prints["new"] == prints["old"] and len(prints["new"]) == 1
    print(f"  fingerprint: working tree {' '.join(prints['new'])}, {args.rev} "
          f"{' '.join(prints['old'])} -> {'equal' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
