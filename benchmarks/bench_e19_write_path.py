"""E19: the write-path throughput stack (slot batching on the pipelined
slots) on the one-fsync-at-a-time WAL, against a cost model
where per-message CPU and fsyncs dominate.  The full stack must deliver
>= 2x the defaults' saturated throughput with zero consistency
violations — the Spinnaker-style claim that group write throughput
comes from batched, pipelined, group-committed log appends."""

from conftest import run_once, save_result
from repro.harness.experiments import run_e19


def test_e19_write_path_saturation(benchmark):
    result = run_once(benchmark, lambda: run_e19(quick=True))
    save_result(result)
    rows = result.rows
    baseline = next(r for r in rows if r["batch"] == 0 and r["pipe"] == 8)
    full = next(r for r in rows if r["batch"] > 0 and r["pipe"] > 0)
    assert full["ops_per_s"] >= 2 * baseline["ops_per_s"]
    # Amortization is visible in per-op constants, not just throughput.
    assert full["msgs_per_op"] < baseline["msgs_per_op"]
    assert full["fsyncs_per_op"] < 0.5 * baseline["fsyncs_per_op"]
    # The consistency bar does not move: every cell linearizes.
    assert all(r["violations"] == 0 for r in rows)
