#!/usr/bin/env python3
"""Perf ledger: five end-to-end workloads, host and simulated metrics.

    python3 benchmarks/ledger/run.py                      # untraced suite, all workloads
    python3 benchmarks/ledger/run.py --traced             # plus the per-layer passes
    python3 benchmarks/ledger/run.py --check-repeat       # same seed twice + another seed
    python3 benchmarks/ledger/run.py --workload kv_mixed --seed 3 --seconds 8 --trace 0

Each workload runs in a fresh interpreter started from here, one after
another, never two at once, so peak RSS and GC heap state belong to that
workload alone and the two cores never share the measurement.  With
``--workload`` the last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT_DIR = os.path.join(HERE, "out")


# ---------------------------------------------------------------------------
# Child: one workload in this interpreter
# ---------------------------------------------------------------------------
def worker(name: str, seed: int, factor: float, traced: bool) -> None:
    sys.path.insert(0, SRC)
    import stack  # the only module that imports the program under test

    shape = ledger.SHAPE_BY_NAME[name]
    run = stack.run_traced if traced else stack.run_untraced
    json.dump(run(shape, seed, factor), sys.stdout)


def run_child(name: str, seed: int, factor: float, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", name,
           "--seed", str(seed), "--factor", repr(factor), "--trace", str(int(traced))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name}: worker exited with code {done.returncode}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def scheduled_kills(shape: ledger.Shape, factor: float) -> int:
    room = shape.fault_sim_s * factor - ledger.KILL_QUIET_TAIL - ledger.KILL_FIRST
    return shape.pooled_seeds * max(0, math.ceil(room / ledger.KILL_EVERY))


def problems(shape: ledger.Shape, factor: float, untraced: dict | None, traced: dict | None) -> list[str]:
    """Every failed output check of one workload's results, as sentences."""
    found = []
    for label, result, seeds in (("untraced", untraced, shape.pooled_seeds), ("traced", traced, 1)):
        if result is None:
            continue
        counts, layers = result["counts"], result["layers"]
        if layers["sim_violations"]:
            found.append(f"{label}: {layers['sim_violations']} linearizability violations or "
                         f"audit findings {counts['audit']}")
        if counts["unresolved"]:
            found.append(f"{label}: {counts['unresolved']} windowed ops unresolved after the drain")
        if counts["attempted"] != counts["completed"] or counts["attempted"] < 1:
            found.append(f"{label}: {counts['completed']} of {counts['attempted']} ops of the "
                         "gated window completed")
        want = scheduled_kills(shape, factor) * seeds // shape.pooled_seeds
        if want and (counts["kills"] < want or layers["sim_failovers"] < 0.75 * want):
            found.append(f"{label}: {counts['kills']} leader kills, {layers['sim_failovers']} "
                         f"failover samples, {want} kills scheduled")
        for name in layers:
            if not ledger.NAME_RE.fullmatch(name):
                found.append(f"{label}: bad metric name {name!r}")
    if traced is not None:
        if len(set(traced["fingerprints"].values())) != 1:
            found.append(f"traced: fingerprints differ between passes {traced['fingerprints']}")
        if abs(traced["layers"]["profile.attributed_share"] - 1.0) > 0.05:
            found.append("traced: layer self times do not sum to the profiled window's host time")
        if shape.fault_sim_s and factor >= 1.0 and traced["layers"]["txn.committed"] < 1:
            found.append("traced: no group operation committed under the fault schedule")
    return found


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------
def print_metrics(title: str, metrics: tuple[ledger.Metric, ...], values: dict) -> None:
    print(f"  {title}")
    for m in metrics:
        if m.name in values:
            bound = f"  bound {m.bound:.0%}" if m.bound is not None else ""
            print(f"    {m.name:36s} {values[m.name]:>14.4f} {m.unit:6s} [{m.base:5s} {m.better}]{bound}")


def print_workload(shape: ledger.Shape, seed: int, factor: float, untraced: dict | None,
                   traced: dict | None) -> None:
    seeds = ", ".join(str(seed + i) for i in range(shape.pooled_seeds))
    window = f"{shape.measure_sim_s * factor:g} sim-s"
    if shape.fault_sim_s:
        window += f" fault-free lead-in (gated) + {shape.fault_sim_s * factor:g} sim-s under the fault schedule"
    print(f"\n== {shape.name}: {shape.n_nodes} nodes / {shape.n_groups} groups, closed loop of "
          f"{shape.n_clients} clients, think {1e3 * shape.think_time:g} ms, {shape.n_keys} keys, "
          f"{shape.read_fraction:.0%} reads")
    print(f"   seed(s) {seeds}; warm {shape.warm_sim_s:g} sim-s; window {window}; "
          f"message delay {ledger.MESSAGE_DELAY}")
    print(f"   settings {shape.settings or 'all defaults'}")
    for result, label in ((untraced, "untraced run"), (traced, "traced run")):
        if result is None:
            continue
        c = result["counts"]
        print(f"   {label}: {c['completed']}/{c['attempted']} ops completed in the gated window, "
              f"{c['all_completed']}/{c['all_attempted']} in all windows; sim_p999_ms is p"
              f"{c['tail_percentile']:.4g} with {c['tail_samples_beyond']} samples beyond it; "
              f"{c['kills']} leader kills, {c['group_ops_started']} group operations started; "
              f"settings skipped: {c['skipped'] or 'none'}")
    if untraced is not None:
        print(f"   sim_fingerprint {untraced['fingerprint']}; set-ups "
              + ", ".join(f"{s:.3f}" for s in untraced["counts"]["setups"]) + " s")
        print_metrics("end to end (untraced)", ledger.END_TO_END, untraced["e2e"])
        print_metrics("per layer, source A (untraced)", ledger.PER_LAYER, untraced["layers"])
        for row in untraced.get("per_seed", []):
            print(f"   seed {row['seed']} alone: " + ", ".join(
                f"{k} {row['e2e'][k]:.4g}" for k in ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms"))
                + f", sim_failover_p50_ms {row['layers']['sim_failover_p50_ms']:.4g}"
                + f", harness.goodput_ops_per_s {row['layers']['harness.goodput_ops_per_s']:.4g}"
                + f", fingerprint {row['fingerprint']}")
    if traced is not None:
        print(f"   traced fingerprints {traced['fingerprints']}")
        print_metrics("per layer (traced run: sources A-D)", ledger.PER_LAYER, traced["layers"])


def write_trace(name: str, seed: int, traced: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}.json")
    with open(path, "w") as f:
        json.dump({"workload": name, "seed": seed, **traced}, f, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------
def run_workload(shape: ledger.Shape, seed: int, factor: float, untraced: bool, traced: bool):
    u = run_child(shape.name, seed, factor, traced=False) if untraced else None
    t = run_child(shape.name, seed, factor, traced=True) if traced else None
    print_workload(shape, seed, factor, u, t)
    if t is not None:
        print(f"   wrote {os.path.relpath(write_trace(shape.name, seed, t))}")
    found = problems(shape, factor, u, t)
    for problem in found:
        print(f"   CHECK FAILED {problem}")
    return u, t, found


def contract_line(result: dict, correct: bool) -> str:
    """The result object the driver reads from the last line of stdout."""
    untraced = "e2e" in result
    registry = ledger.END_TO_END if untraced else ledger.PER_LAYER
    values = result["e2e"] if untraced else result["layers"]
    counts = result["counts"]
    return json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["completed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in registry},
    })


def check_repeat(shapes, seed: int, factor: float) -> int:
    """Same seed twice and another seed once; exact metrics must repeat exactly."""
    failed = 0
    for shape in shapes:
        runs = [run_child(shape.name, s, factor, traced=False) for s in (seed, seed, seed + 1000)]
        a, b, other = runs
        print(f"\n== {shape.name}: seed {seed} twice, seed {seed + 1000} once")
        same = a["fingerprint"] == b["fingerprint"]
        print(f"   sim_fingerprint {a['fingerprint']} / {b['fingerprint']} "
              f"{'equal' if same else 'DIFFER'}; seed {seed + 1000}: {other['fingerprint']}")
        failed += not same
        for m in ledger.END_TO_END + ledger.PER_LAYER:
            group = "e2e" if m.name in a["e2e"] else "layers"
            if m.name not in a[group]:
                continue
            x, y, z = (r[group][m.name] for r in runs)
            if ledger.is_exact(m):
                ok = repr(x) == repr(y)
                failed += not ok
                verdict = "exact" if ok else "NOT EXACT"
            else:
                spread = abs(x - y) / min(x, y) if min(x, y) > 0 else 0.0
                verdict = f"spread {spread:.1%}" + (
                    f" of bound {m.bound:.0%}" + ("" if spread <= m.bound else " EXCEEDED")
                    if m.bound is not None else "")
            print(f"    {m.name:36s} {x:>14.4f} {y:>14.4f} | {z:>14.4f} {m.unit:6s} "
                  f"[{m.base}] {verdict}")
        for rows in zip(*(r.get("per_seed", []) for r in (a, b))):
            print(f"   seed {rows[0]['seed']} alone: fingerprints "
                  + " / ".join(r["fingerprint"] for r in rows)
                  + "; sim_failover_p50_ms "
                  + " / ".join(f"{r['layers']['sim_failover_p50_ms']:.4g}" for r in rows))
            failed += rows[0]["fingerprint"] != rows[1]["fingerprint"]
    print(f"\ncheck-repeat: {'FAILED' if failed else 'passed'} ({failed} exact metrics moved)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ledger.SHAPE_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=ledger.RUN_SECONDS,
                        help="host seconds the gated window is sized for on the baseline host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="add the traced run to the suite")
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every window (smoke tests)")
    parser.add_argument("--json", metavar="OUT", help="also write all results to this file")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--factor", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        worker(args.workload, args.seed, args.factor, bool(args.trace))
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is not at {SRC}", file=sys.stderr)
        return 2

    factor = args.seconds / ledger.RUN_SECONDS * args.scale
    shapes = [ledger.SHAPE_BY_NAME[args.workload]] if args.workload else list(ledger.SHAPES)
    if args.check_repeat:
        return check_repeat(shapes, args.seed, factor)

    only_traced = args.workload is not None and args.trace == 1
    results, failed = {}, 0
    for shape in shapes:
        u, t, found = run_workload(shape, args.seed, factor, untraced=not only_traced,
                                   traced=only_traced or args.traced)
        results[shape.name] = {"untraced": u, "traced": t, "problems": found}
        failed += bool(found)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "factor": factor, "workloads": results}, f, indent=1)
    if args.workload:
        r = results[args.workload]
        print(contract_line(r["traced" if only_traced else "untraced"], not failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
