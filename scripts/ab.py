#!/usr/bin/env python3
"""A/B perf-ledger workloads: the working tree against a git revision.

    python scripts/ab.py REV [--workload W ...] [--pairs N] [--seed S] [--seconds T]

``git archive REV src benchmarks/ledger`` is unpacked into a temporary
directory, and ``benchmarks/ledger/run.py --workload W --trace 0`` runs
in pairs, once from the working tree and once from that copy, each run
in a fresh interpreter; the side that goes first alternates from pair
to pair, so drift on the host falls on both.  ``--workload`` may be
given more than once; without it every workload in BENCHMARK.json runs.
For each workload and every end-to-end metric in BENCHMARK.json the
script prints each pair's ratio (working tree / REV), the median ratio,
how many pairs the working tree won, each side's median value, each
side's spread (interquartile range over the median) and a verdict:

- ``same``: every pair read equal;
- ``unresolved``: REV's own spread is wider than the metric's
  BENCHMARK.json ``bound``, and not every working-tree run beats every
  REV run, so the pairs cannot tell;
- ``worse``: the median ratio is past the bound, against the working
  tree;
- ``better``: the median ratio is past the bound for the working tree,
  the working tree won at least 9 pairs in 10, and the medians differ
  by more than REV's interquartile range (the rule a claimed gain must
  meet);
- ``within``: anything else, including a gain that misses that rule.

A table of both sides' simulation fingerprints per workload ends the
output.

Exit status: 0 when every workload's fingerprints are equal, 1 when any
differ, 2 when a run fails or REV cannot be archived.  Nothing is
written under ``benchmarks/`` (bar the interpreter's own
``__pycache__``): the copy and the runs' JSON live in a temporary
directory, removed on exit.
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


def spread(values: list[float]) -> float:
    """Interquartile range over the median: the run-to-run spread that a
    metric's bound is read against (0 for fewer than two runs)."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(mid)


def verdict(metric: dict, new: list[float], old: list[float], ratio: float) -> str:
    """``same``, ``unresolved``, ``worse``, ``better`` or ``within`` (see
    the module docstring); ``new`` and ``old`` are the runs by pair and
    ``ratio`` the median of their ratios."""
    if new == old:
        return "same"
    bound, lower = metric["bound"], metric["better"] == "lower"
    beats_all = max(new) < min(old) if lower else min(new) > max(old)
    if spread(old) > bound and not beats_all:
        return "unresolved"
    up, down = ratio > 1 + bound, ratio < 1 - bound
    if up if lower else down:
        return "worse"
    wins = sum(a < b if lower else a > b for a, b in zip(new, old))
    mid_old = statistics.median(old)
    apart = abs(statistics.median(new) - mid_old) > spread(old) * abs(mid_old)
    if (down if lower else up) and wins >= 0.9 * len(new) and apart:
        return "better"
    return "within"


def report(rev: str, workload: str, args: argparse.Namespace, metrics: list[dict],
           runs: dict[str, list[dict]]) -> None:
    """Print one workload's block: per metric, the pair ratios, wins,
    medians, spreads and verdict."""
    print(f"ab: working tree vs {rev} on {workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {args.pairs} pair(s); ratio = working tree / {rev}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        new, old = ([r["metrics"][name] for r in runs[side]] for side in ("new", "old"))
        ratios = [a / b if b else float("nan") for a, b in zip(new, old)]
        wins = sum(a < b if lower else a > b for a, b in zip(new, old))
        ratio = statistics.median(ratios)
        print(f"  {name:18s} {m['better']:6s} "
              + " ".join(f"{r:6.3f}" for r in ratios)
              + f"  median {ratio:6.3f}  wins {wins}/{args.pairs}"
              + f"  ({statistics.median(new):.4g} vs {statistics.median(old):.4g} {m['unit']})"
              + f"  spread {spread(new):.1%} vs {spread(old):.1%}"
              + f"  {verdict(m, new, old, ratio)}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"  failed ops: working tree {failed['new']}, {rev} {failed['old']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    prints: dict[str, dict[str, list[str]]] = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = os.path.join(tmp, "rev")
        os.mkdir(base)
        try:
            archive(args.rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"ab.py: cannot archive {args.rev}: {exc}", file=sys.stderr)
            return 2
        sides = {"new": ROOT, "old": base}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"new": [], "old": []}
            for pair in range(args.pairs):
                order = ("new", "old") if pair % 2 == 0 else ("old", "new")
                for side in order:
                    out = os.path.join(tmp, f"{workload}-{side}-{pair}.json")
                    try:
                        runs[side].append(run_once(sides[side], workload, args.seed,
                                                   args.seconds, out))
                    except RuntimeError as exc:
                        print(f"ab.py: {exc}", file=sys.stderr)
                        return 2
            report(args.rev, workload, args, metrics, runs)
            prints[workload] = {side: sorted({r["fingerprint"] for r in rs})
                                for side, rs in runs.items()}

    print(f"fingerprints: working tree vs {args.rev}")
    differ = 0
    for workload, p in prints.items():
        same = p["new"] == p["old"] and len(p["new"]) == 1
        differ += not same
        print(f"  {workload:14s} {' '.join(p['new']):>18s}  {' '.join(p['old']):>18s}  "
              f"{'equal' if same else 'DIFFER'}")
    print(f"  {len(prints) - differ} equal, {differ} differ -> {'DIFFER' if differ else 'equal'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
