"""Command-line interface: run experiments and ad-hoc simulations.

Usage::

    python -m repro list
    python -m repro run E2 E11 --full --seed 7
    python -m repro sweep E2 --workers 4 --seeds 1 2 3 4
    python -m repro churn --backend scatter --lifetime 120 --duration 90
    python -m repro nemesis gray_failure --backend scatter --duration 60
    python -m repro profile E6 --top 20
    python -m repro perf --json BENCH_SIM.json
    python -m repro trace e05 --out trace_E5.jsonl
    python -m repro fuzz --iterations 25
    python -m repro fuzz --demo-bug quorum-off-by-one
    python -m repro fuzz --replay repro-12345.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.faults.scenarios import SCENARIOS, scenario_names
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    _churn_run,
    _nemesis_run,
    experiment_key,
    experiment_names,
    run_experiment,
)
from repro.harness.builders import DeploymentParams


def _unknown(exc: KeyError) -> int:
    """Report an unknown experiment name (the message lists the known ones)."""
    print(exc.args[0], file=sys.stderr)
    return 2


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in experiment_names():
        print(f"{name:>4}  {ALL_EXPERIMENTS[name][1]}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        keys = [experiment_key(name) for name in args.experiments or experiment_names()]
    except KeyError as exc:
        return _unknown(exc)
    for key in keys:
        started = time.time()
        result = run_experiment(key, quick=not args.full, seed=args.seed)
        print(result.render())
        if args.chart:
            from repro.harness.charts import render_chart

            print()
            print(render_chart(result, args.chart))
        print(f"[{key} in {time.time() - started:.1f}s wall]\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweep import derive_seed, run_sweep

    try:
        key = experiment_key(args.experiment)
    except KeyError as exc:
        return _unknown(exc)
    seeds = args.seeds
    if not seeds:
        seeds = [derive_seed(args.master_seed, key, i) for i in range(args.count)]
    started = time.time()
    sweep = run_sweep(key, seeds, quick=not args.full, workers=args.workers)
    print(sweep.merged.render())
    if args.fingerprints:
        print()
        for seed, digest in sweep.fingerprints():
            print(f"cell seed={seed} fingerprint={digest}")
    print(
        f"[{key} x {len(seeds)} seeds, {args.workers} worker(s) "
        f"in {time.time() - started:.1f}s wall]"
    )
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    params = DeploymentParams(
        n_nodes=args.nodes, n_groups=max(1, args.nodes // 5), n_clients=3, seed=args.seed
    )
    metrics = _churn_run(
        args.backend,
        args.lifetime if args.lifetime > 0 else None,
        args.duration,
        params,
    )
    print(f"backend:       {args.backend}")
    print(f"nodes:         {args.nodes}")
    print(f"lifetime:      {args.lifetime if args.lifetime > 0 else 'no churn'}")
    print(f"ops:           {metrics['ops']}")
    print(f"availability:  {metrics['availability']:.4f}")
    print(f"p50 latency:   {1000 * metrics['latency_p50']:.1f} ms")
    print(f"reads checked: {metrics['reads_checked']}")
    print(f"violations:    {metrics['violations']}")
    print(f"departures:    {metrics['departures']}")
    return 0


def _cmd_nemesis(args: argparse.Namespace) -> int:
    if args.scenario is None or args.scenario == "list":
        for name in scenario_names():
            print(f"{name:>22}  {SCENARIOS[name].description}")
        return 0
    if args.scenario not in SCENARIOS:
        known = ", ".join(scenario_names())
        print(f"unknown scenario {args.scenario!r}; known: {known}", file=sys.stderr)
        return 2
    params = DeploymentParams(
        n_nodes=args.nodes, n_groups=max(1, args.nodes // 5), n_clients=3, seed=args.seed
    )
    metrics = _nemesis_run(args.backend, args.scenario, args.duration, params)
    print(f"scenario:      {args.scenario}")
    print(f"backend:       {args.backend}")
    print(f"nodes:         {args.nodes}  seed: {args.seed}  duration: {args.duration}s")
    print(f"fault events:  {metrics['fault_events']}")
    print(f"ops:           {metrics['ops']}")
    print(f"availability:  {metrics['availability']:.4f}")
    print(f"p50 latency:   {1000 * metrics['latency_p50']:.1f} ms")
    print(f"violations:    {metrics['violations']}")
    print(f"stalls:        {metrics['stalls']}  (max {metrics['max_stall_s']:.2f} s)")
    if "dead_groups" in metrics:
        dead = metrics["dead_groups"]
        if dead:
            print(f"dead groups:   {dead}  (first below quorum at +{metrics['first_death_s']:.2f} s)")
        else:
            print("dead groups:   0")
    recovered = "yes" if metrics["recovered"] else "NO (capped)"
    print(f"recovery:      {metrics['recovery_s']:.2f} s after heal  recovered: {recovered}")
    dead_ok = metrics.get("dead_groups", 0) == 0
    return 0 if metrics["recovered"] and metrics["violations"] == 0 and dead_ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.profile import profile_experiment

    try:
        result, stats_text = profile_experiment(
            args.experiment, quick=not args.full, seed=args.seed,
            sort=args.sort, top=args.top,
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(result.render())
    print()
    print(stats_text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_traced
    from repro.obs.export import render_breakdown, write_jsonl

    try:
        key = experiment_key(args.experiment)
    except KeyError as exc:
        return _unknown(exc)
    started = time.time()
    result, tracer = run_traced(key, quick=not args.full, seed=args.seed)
    out = args.out or f"trace_{key}.jsonl"
    lines = write_jsonl(tracer, out)
    print(result.render())
    print()
    print(render_breakdown(tracer))
    print(f"\n[{lines} trace lines -> {out}; {key} in {time.time() - started:.1f}s wall]")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.microbench import (
        check_gates,
        render_report,
        run_microbenchmarks,
        write_bench_file,
    )

    report = run_microbenchmarks(quick=args.quick)
    print(render_report(report))
    if args.json:
        write_bench_file(report, args.json)
        print(f"\nwrote {args.json}")
    failed = [gate for holds, gate in check_gates(report) if not holds]
    for gate in failed:
        print(f"perf gate failed: {gate}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.check import FuzzConfig, load_repro, replay, run_fuzz, run_fuzz_sharded

    if args.replay:
        try:
            data = load_repro(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load repro file: {exc}", file=sys.stderr)
            return 2
        reproduced, observed, recorded = replay(data)
        print(f"recorded: {recorded.kind}:{recorded.name} @ t={recorded.time}")
        if observed is None:
            print("observed: run completed clean — NOT reproduced", file=sys.stderr)
            return 2
        print(f"observed: {observed.kind}:{observed.name} @ t={observed.time}")
        print(f"detail:   {observed.detail}")
        if not reproduced:
            print("failure differs from the recorded one — NOT reproduced", file=sys.stderr)
            return 2
        print("reproduced: yes")
        return 0

    config = FuzzConfig(
        master_seed=args.seed,
        iterations=args.iterations,
        minutes=args.minutes,
        bug=args.demo_bug,
        out_dir=args.out_dir,
        shrink=not args.no_shrink,
        max_shrink_runs=args.max_shrink_runs,
        progress=lambda line: print(f"[fuzz] {line}", file=sys.stderr),
    )
    try:
        if args.workers > 1:
            if args.minutes is not None:
                print("--workers requires a fixed --iterations budget; "
                      "--minutes campaigns run serially", file=sys.stderr)
                return 2
            summary = run_fuzz_sharded(config, workers=args.workers)
        else:
            summary = run_fuzz(config)
    except ValueError as exc:  # unknown --demo-bug
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps(summary.to_dict(), sort_keys=True))
    if summary.found:
        failure = summary.failure
        print(
            f"FAILURE at iteration {summary.failing_iteration}: "
            f"{failure.kind}:{failure.name} — {failure.detail}",
            file=sys.stderr,
        )
        print(f"repro written to {summary.repro_path}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scatter (SOSP 2011) reproduction: experiments and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments (default: all, quick scale)")
    p_run.add_argument("experiments", nargs="*", help="e.g. E1 E2 e11")
    p_run.add_argument("--full", action="store_true", help="paper-scale runs (slow)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--chart", metavar="COLUMN", default=None,
                       help="also render an ASCII bar chart of this column")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run one experiment across seeds, sharded over worker "
             "processes; the merged table is byte-identical to a serial run",
    )
    p_sweep.add_argument("experiment", help="e.g. E2")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial, the reference)")
    p_sweep.add_argument("--seeds", type=int, nargs="*", default=None,
                         help="explicit cell seeds (default: derive --count "
                              "seeds from --master-seed)")
    p_sweep.add_argument("--count", type=int, default=4,
                         help="derived seeds when --seeds is not given")
    p_sweep.add_argument("--master-seed", type=int, default=1)
    p_sweep.add_argument("--full", action="store_true", help="paper-scale cells (slow)")
    p_sweep.add_argument("--fingerprints", action="store_true",
                         help="also print each cell's table fingerprint")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_churn = sub.add_parser("churn", help="one ad-hoc churn run with metrics")
    p_churn.add_argument("--backend", choices=["scatter", "chord"], default="scatter")
    p_churn.add_argument("--lifetime", type=float, default=120.0,
                         help="median node lifetime in seconds (0 = no churn)")
    p_churn.add_argument("--duration", type=float, default=60.0)
    p_churn.add_argument("--nodes", type=int, default=20)
    p_churn.add_argument("--seed", type=int, default=1)
    p_churn.set_defaults(fn=_cmd_churn)

    p_nem = sub.add_parser(
        "nemesis", help="run a named fault scenario against a live deployment"
    )
    p_nem.add_argument("scenario", nargs="?", default=None,
                       help="scenario name (omit or 'list' to list scenarios)")
    p_nem.add_argument("--backend", choices=["scatter", "chord"], default="scatter")
    p_nem.add_argument("--nodes", type=int, default=20)
    p_nem.add_argument("--duration", type=float, default=40.0)
    p_nem.add_argument("--seed", type=int, default=1)
    p_nem.set_defaults(fn=_cmd_nemesis)

    p_prof = sub.add_parser(
        "profile", help="run one experiment under cProfile and print hot frames"
    )
    p_prof.add_argument("experiment", help="e.g. E6")
    p_prof.add_argument("--full", action="store_true", help="paper-scale run (slow)")
    p_prof.add_argument("--seed", type=int, default=None)
    p_prof.add_argument("--sort", choices=["tottime", "cumulative", "ncalls"],
                        default="tottime")
    p_prof.add_argument("--top", type=int, default=25, help="frames to print")
    p_prof.set_defaults(fn=_cmd_profile)

    p_perf = sub.add_parser(
        "perf", help="simulator microbenchmarks: in-run timing ratios and exact "
                     "counts, exit 1 if any gate fails"
    )
    p_perf.add_argument("--json", metavar="PATH", default=None,
                        help="write the report to PATH, e.g. BENCH_SIM.json")
    p_perf.add_argument("--quick", action="store_true",
                        help="small workloads (smoke test, not for BENCH_SIM.json)")
    p_perf.set_defaults(fn=_cmd_perf)

    p_trace = sub.add_parser(
        "trace",
        help="run one experiment with repro.obs tracing on; print the "
             "per-phase cost breakdown and write a JSONL trace",
    )
    p_trace.add_argument("experiment", help="e.g. e05 or E5")
    p_trace.add_argument("--full", action="store_true", help="paper-scale run (slow)")
    p_trace.add_argument("--seed", type=int, default=None)
    p_trace.add_argument("--out", metavar="PATH", default=None,
                         help="JSONL trace path (default trace_<EXP>.jsonl)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="deterministic-simulation fuzzing: randomized fault schedules "
             "checked against the repro.check invariant registry",
    )
    p_fuzz.add_argument("--iterations", type=int, default=25,
                        help="iterations to run (ignored with --minutes)")
    p_fuzz.add_argument("--workers", type=int, default=1,
                        help="shard iterations across N processes; the "
                             "verdict (failing iteration, repro file) matches "
                             "a serial campaign")
    p_fuzz.add_argument("--minutes", type=float, default=None,
                        help="wall-clock budget; run iterations until it expires")
    p_fuzz.add_argument("--seed", type=int, default=1,
                        help="master seed; iteration seeds derive from it")
    p_fuzz.add_argument("--demo-bug", default=None, metavar="NAME",
                        help="inject a known bug, one of repro.check.demo.DEMO_BUGS "
                             "(e.g. quorum-off-by-one), to prove the fuzzer finds it")
    p_fuzz.add_argument("--out-dir", default=".",
                        help="directory for repro-<seed>.json files "
                             "(repro-<bug>-<seed>.json with --demo-bug)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging the failing plan")
    p_fuzz.add_argument("--max-shrink-runs", type=int, default=150,
                        help="re-execution budget for the shrinker")
    p_fuzz.add_argument("--replay", metavar="FILE", default=None,
                        help="re-execute a saved repro file and verify the "
                             "recorded failure reproduces (exit 0 if so)")
    p_fuzz.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
