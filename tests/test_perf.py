"""Tests for the repro.perf subsystem (microbenchmarks, profile, emitter)."""

import json

import pytest

from repro.cli import main
from repro.perf.microbench import (
    attach_baseline,
    compare_benchmarks,
    load_bench_file,
    render_report,
    run_microbenchmarks,
    write_bench_file,
)
from repro.perf.profile import profile_experiment

BENCH_NAMES = {
    "event_throughput",
    "event_throughput_handles",
    "net_send_deliver",
    "net_send_deliver_faulty",
    "pooled_send_deliver",
    "ring_lookup_10k",
    "e2e_scatter_ops",
    "write_path_saturation",
    "wal_fsync_per_ack",
    "follower_read_window",
    "accept_msgs_per_slot",
    "cyclic_garbage_per_op",
    "node_footprint",
    "op_footprint",
}


@pytest.fixture(scope="module")
def quick_report():
    return run_microbenchmarks(quick=True, repeat=1)


class TestMicrobenchmarks:
    def test_all_benchmarks_present_and_positive(self, quick_report):
        by_name = {b["name"]: b for b in quick_report["benchmarks"]}
        assert set(by_name) == BENCH_NAMES
        for bench in by_name.values():
            assert bench["value"] > 0
            assert bench["wall_s"] > 0
            assert bench["units_completed"] > 0
            assert bench["metric"] in (
                "events_per_s", "msgs_per_s", "lookups_per_s", "pairs_per_s", "ops_per_s",
                "checks_per_s", "rounds_per_s", "nodes_per_s",
            )

    def test_e2e_reports_ops(self, quick_report):
        e2e = next(b for b in quick_report["benchmarks"] if b["name"] == "e2e_scatter_ops")
        assert e2e["ops_completed"] > 0
        assert e2e["ops_per_s"] > 0

    def test_scaleout_benches_record_ab_ratios(self, quick_report):
        """The scale-out benches time both sides of their A/B in one run."""
        by_name = {b["name"]: b for b in quick_report["benchmarks"]}
        assert by_name["pooled_send_deliver"]["speedup_vs_checked"] > 1.0
        assert by_name["pooled_send_deliver"]["checked_msgs_per_s"] > 0
        assert by_name["ring_lookup_10k"]["speedup_vs_linear"] > 1.5
        assert by_name["ring_lookup_10k"]["groups"] > 0
        # Per-ack WAL cost is flat in log length; a barrier that scans
        # the whole log measures 9.8 here.
        assert by_name["wal_fsync_per_ack"]["cost_ratio_10k_vs_100"] < 3.0
        # So is a follower read's conflict check: the window is the slots
        # above the applied prefix; sorting the retained log measures 6.7.
        assert by_name["follower_read_window"]["cost_ratio_400_vs_10"] < 3.0

    def test_render_report(self, quick_report):
        text = render_report(quick_report)
        for name in BENCH_NAMES:
            assert name in text


class TestBenchFile:
    def test_write_load_roundtrip(self, quick_report, tmp_path):
        path = tmp_path / "BENCH_SIM.json"
        write_bench_file(quick_report, str(path))
        assert load_bench_file(str(path)) == json.loads(json.dumps(quick_report))

    def test_compare_benchmarks_ratio(self, quick_report):
        old = json.loads(json.dumps(quick_report))
        for bench in old["benchmarks"]:
            bench["value"] = bench["value"] / 2
        rows = compare_benchmarks(old, quick_report)
        assert {r["name"] for r in rows} == BENCH_NAMES
        for row in rows:
            assert row["ratio"] == pytest.approx(2.0, rel=0.01)

    def test_compare_skips_mismatched_workloads(self, quick_report):
        old = json.loads(json.dumps(quick_report))
        old["quick"] = not old["quick"]
        rows = compare_benchmarks(old, quick_report)
        assert all(r["ratio"] is None for r in rows)

    def test_compare_handles_missing_benchmark(self, quick_report):
        old = json.loads(json.dumps(quick_report))
        old["benchmarks"] = [b for b in old["benchmarks"] if b["name"] != "event_throughput"]
        rows = compare_benchmarks(old, quick_report)
        by_name = {r["name"]: r for r in rows}
        assert by_name["event_throughput"]["ratio"] is None
        assert by_name["event_throughput"]["old"] is None

    def test_attach_baseline_speedups(self, quick_report):
        report = json.loads(json.dumps(quick_report))
        half = {b["name"]: b["value"] / 2 for b in report["benchmarks"]}
        attach_baseline(report, {"description": "test", "quick": True, "values": half})
        for bench in report["benchmarks"]:
            assert bench["speedup_vs_pre_pr"] == pytest.approx(2.0, rel=0.01)
        assert report["pre_pr_baseline"]["description"] == "test"

    def test_attach_baseline_skips_mismatched_workloads(self, quick_report):
        report = json.loads(json.dumps(quick_report))
        half = {b["name"]: b["value"] / 2 for b in report["benchmarks"]}
        attach_baseline(report, {"description": "test", "quick": False, "values": half})
        assert all("speedup_vs_pre_pr" not in b for b in report["benchmarks"])
        # The reference still rides along for later full-workload runs.
        assert "pre_pr_baseline" in report


class TestProfile:
    def test_profile_runs_experiment_and_reports_frames(self):
        result, stats_text = profile_experiment("e7", quick=True, sort="tottime", top=5)
        assert result.experiment == "E7"
        assert result.rows
        assert "function calls" in stats_text

    def test_profile_unknown_experiment(self):
        with pytest.raises(KeyError):
            profile_experiment("E99")

    def test_profile_bad_sort(self):
        with pytest.raises(ValueError):
            profile_experiment("E7", sort="nonsense")


class TestPerfCli:
    def test_perf_writes_json(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert main(["perf", "--quick", "--repeat", "1", "--json", str(path)]) == 0
        report = load_bench_file(str(path))
        assert {b["name"] for b in report["benchmarks"]} == BENCH_NAMES
        assert "event_throughput" in capsys.readouterr().out

    def test_perf_fail_below_flags_regression(self, tmp_path):
        path = tmp_path / "bench.json"
        report = run_microbenchmarks(quick=True, repeat=1)
        for bench in report["benchmarks"]:
            bench["value"] = bench["value"] * 1000  # impossible bar
        write_bench_file(report, str(path))
        rc = main(["perf", "--quick", "--repeat", "1",
                   "--json", str(path), "--fail-below", "0.6"])
        assert rc == 1

    def test_perf_carries_baseline_forward(self, tmp_path):
        path = tmp_path / "bench.json"
        report = run_microbenchmarks(quick=True, repeat=1)
        attach_baseline(
            report,
            {"description": "ref", "quick": True,
             "values": {b["name"]: b["value"] for b in report["benchmarks"]}},
        )
        write_bench_file(report, str(path))
        assert main(["perf", "--quick", "--repeat", "1", "--json", str(path)]) == 0
        rewritten = load_bench_file(str(path))
        assert rewritten["pre_pr_baseline"]["description"] == "ref"

    def test_profile_cli(self, capsys):
        assert main(["profile", "E7", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert "function calls" in out

    def test_profile_cli_unknown(self, capsys):
        assert main(["profile", "E99"]) == 2
