"""Tests for the repro.perf subsystem (microbenchmarks, gates, profile, emitter)."""

import json

import pytest

from repro.cli import main
from repro.perf import microbench
from repro.perf.microbench import (
    GATES,
    check_gates,
    render_report,
    run_microbenchmarks,
    write_bench_file,
)
from repro.perf.profile import profile_experiment

BENCH_NAMES = {
    "pooled_send_deliver",
    "ring_lookup_10k",
    "wal_fsync_per_ack",
    "follower_read_window",
    "accept_msgs_per_slot",
    "cyclic_garbage_per_op",
    "node_footprint",
    "op_footprint",
}


@pytest.fixture(scope="module")
def quick_report():
    return run_microbenchmarks(quick=True)


def test_every_gate_reads_a_reported_number(quick_report):
    by_name = {b["name"]: b for b in quick_report["benchmarks"]}
    for bench, key, *_ in GATES:
        assert isinstance(by_name[bench][key], (int, float)), (bench, key)


class TestMicrobenchmarks:
    def test_all_benchmarks_present_and_positive(self, quick_report):
        by_name = {b["name"]: b for b in quick_report["benchmarks"]}
        # Every bench is present, and is there because a gate reads it.
        assert set(by_name) == BENCH_NAMES == {gate[0] for gate in GATES}
        for bench in by_name.values():
            numbers = [value for key, value in bench.items() if key != "name"]
            assert numbers and all(value >= 0 for value in numbers)
            # Ratios and counts only: no rate, wall time or unit count.
            assert not {"value", "metric", "units_completed", "wall_s", "ops_per_s"} & set(bench)

    def test_scaleout_benches_record_ab_ratios(self, quick_report):
        """The scale-out benches time both sides of their A/B in one run."""
        by_name = {b["name"]: b for b in quick_report["benchmarks"]}
        assert by_name["pooled_send_deliver"]["speedup_vs_checked"] > 1.0
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
        for _holds, gate in check_gates(quick_report):
            assert gate in text


class TestBenchFile:
    def test_write_load_roundtrip(self, quick_report, tmp_path):
        path = tmp_path / "BENCH_SIM.json"
        write_bench_file(quick_report, str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(quick_report))


class TestProfile:
    def test_profile_runs_experiment_and_reports_frames(self):
        result, stats_text = profile_experiment("e7", quick=True, sort="tottime", top=5)
        assert result.experiment == "E7"
        assert result.rows
        assert "function calls" in stats_text

    def test_profile_unknown_experiment(self):
        with pytest.raises(KeyError, match="known: E1, E2"):
            profile_experiment("E99")

    def test_profile_bad_sort(self):
        with pytest.raises(ValueError):
            profile_experiment("E7", sort="nonsense")


class TestPerfCli:
    @pytest.fixture
    def quick_suite(self, monkeypatch, quick_report):
        """``repro perf --quick`` answers with the module's quick report."""
        monkeypatch.setattr(
            microbench, "run_microbenchmarks", lambda quick: quick_report if quick else None
        )
        return quick_report

    def test_perf_writes_json(self, tmp_path, capsys, quick_suite):
        path = tmp_path / "bench.json"
        rc = main(["perf", "--quick", "--json", str(path)])
        report = json.loads(path.read_text())
        assert {b["name"] for b in report["benchmarks"]} == BENCH_NAMES
        # Exit 1 exactly when a gate fails.
        assert rc == (0 if all(holds for holds, _ in check_gates(report)) else 1)
        assert "pooled_send_deliver" in capsys.readouterr().out

    def test_perf_fail_below_flags_regression(self, monkeypatch, capsys, quick_suite):
        """A gate the report cannot pass fails ``repro perf``, named on stderr."""
        planted = ("node_footprint", "tracked_objects_per_node", "<=", 1.0)
        monkeypatch.setattr(microbench, "GATES", GATES + (planted,))
        assert main(["perf", "--quick"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("perf gate failed: node_footprint tracked_objects_per_node")
        assert last.endswith("<= 1.0")

    def test_profile_cli(self, capsys):
        assert main(["profile", "E7", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert "function calls" in out

    def test_profile_cli_unknown(self, capsys):
        assert main(["profile", "E99"]) == 2
        assert "unknown experiment 'E99'; known: E1" in capsys.readouterr().err
