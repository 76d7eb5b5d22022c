"""E20: the scale-out read path.  With follower reads on and clients
routing Gets round-robin across the group, read throughput must scale
with replica count instead of saturating one leader CPU — >= 2.4x at
three replicas and >= 3x at five in quick mode — and every cell must
stay linearizable (the grant/quorum-expansion protocol is doing real
work, not relaxing the consistency bar)."""

from conftest import run_once, save_result
from repro.harness.experiments import run_e20


def test_e20_follower_read_scaling(benchmark):
    result = run_once(benchmark, lambda: run_e20(quick=True))
    save_result(result)
    rows = result.rows

    def cell(replicas, follower_reads):
        return next(
            r for r in rows
            if r["replicas"] == replicas and r["follower_reads"] == follower_reads
        )

    # One replica: nothing to scale out to; parity with leader-only.
    assert cell(1, True)["reads_per_s"] <= 1.1 * cell(1, False)["reads_per_s"]
    # Reads spread across the group, the leader taking only what its
    # writes and bounces leave room for.
    assert cell(3, True)["read_x"] >= 2.4
    assert cell(5, True)["read_x"] >= 3.0
    # Leader-only is flat in replica count (the whole motivation).
    assert cell(5, False)["reads_per_s"] <= 1.2 * cell(1, False)["reads_per_s"]
    # The consistency bar does not move: every cell linearizes.
    assert all(r["violations"] == 0 for r in rows)
