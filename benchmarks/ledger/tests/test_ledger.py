"""Tests of the perf ledger itself (not tier-1; run with
``pytest benchmarks/ledger/tests`` from the repository root)."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
for path in (os.path.join(ROOT, "src"), LEDGER_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import ledger  # noqa: E402
import stack  # noqa: E402

RUN = [sys.executable, os.path.join(LEDGER_DIR, "run.py")]


def test_registry_and_benchmark_json_name_the_same_things():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert spec["run_seconds"] == ledger.RUN_SECONDS
    assert spec["workloads"] == [{"name": s.name, "why": s.why} for s in ledger.SHAPES]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in ledger.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in ledger.PER_LAYER
    ]
    names = [m.name for m in ledger.END_TO_END + ledger.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(ledger.NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(len(s.why) <= 200 and "\n" not in s.why for s in ledger.SHAPES)
    assert all(0 < m.bound <= 0.25 for m in ledger.END_TO_END)


def test_setting_filter_skips_and_reports_a_field_the_program_lacks():
    kept, skipped = stack.resolve_settings({"batch": True, "cache_size": 9, "warp_drive": 9})
    assert skipped == ["warp_drive"]
    assert kept["paxos"] == {"batch": True}
    assert kept["client"] == {"cache_size": 9}


def _op(key, invoke, response, ok=True):
    return SimpleNamespace(key=key, invoke_time=invoke, response_time=response, completed=ok)


def test_failover_is_first_completion_after_the_kill_in_the_killed_range():
    records = [
        _op(5, 9.0, 10.4),             # invoked before the kill: not a sample
        _op(50, 10.1, 10.2),           # another group's range
        _op(7, 10.2, 18.2, ok=False),  # timed out
        _op(6, 10.5, 11.3),            # the sample: 1.3 s after the kill
        _op(8, 10.3, 11.9),
        _op(95, 20.5, 21.0),           # wrapped range [90, 3)
        _op(2, 20.1, 20.6),
    ]
    kills = [(10.0, 0, 10), (20.0, 90, 3), (30.0, 0, 10)]
    samples = ledger.failover_samples(records, kills)
    assert [None if s is None else round(s, 6) for s in samples] == [1.3, 0.6, None]


def test_percentiles_and_fingerprint():
    assert ledger.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert ledger.percentile([], 99) == 0.0
    assert ledger.tail_percentile(20_000) == 99.9
    assert ledger.tail_percentile(1_000) == 99.0
    assert ledger.fnv1a64([1, 2.5]) == ledger.fnv1a64([1, 2.5]) != ledger.fnv1a64([1, 2.6])
    assert ledger.in_range(1, 90, 3) and not ledger.in_range(50, 90, 3) and ledger.in_range(7, 4, 4)


def test_smoke_all_workloads_untraced_and_traced(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(RUN + ["--scale", "0.05", "--traced", "--json", str(out)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-3000:]
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == [s.name for s in ledger.SHAPES]
    e2e = {m.name for m in ledger.END_TO_END}
    layers = {m.name for m in ledger.PER_LAYER}
    for name, result in results.items():
        assert result["problems"] == []
        assert set(result["untraced"]["e2e"]) == e2e, name
        assert set(result["traced"]["layers"]) == layers, name
        assert set(result["untraced"]["layers"]) <= layers, name
        assert len(set(result["traced"]["fingerprints"].values())) == 1, name
        assert os.path.exists(os.path.join(LEDGER_DIR, "out", f"trace-{name}.json"))
    for metric in ledger.END_TO_END + ledger.PER_LAYER:
        assert f" {metric.name} " in done.stdout, metric.name
    # Each mechanism has a workload that exercises it and one that bypasses it.
    assert results["kv_mixed"]["traced"]["layers"]["storage.fsyncs_per_op"] == 0
    assert results["write_sat"]["traced"]["layers"]["storage.fsyncs_per_op"] > 0
    assert results["kv_mixed"]["traced"]["layers"]["txn.committed"] == 0
    for name, result in results.items():
        share = result["traced"]["layers"]["group.follower_read_share"]
        assert (share > 0) == (name == "read_fanout"), name


def test_contract_result_line(tmp_path):
    for trace, registry in ((0, ledger.END_TO_END), (1, ledger.PER_LAYER)):
        done = subprocess.run(
            RUN + ["--workload", "kv_mixed", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(tmp_path),
        )
        assert done.returncode == 0, done.stdout[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in registry]
        assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
