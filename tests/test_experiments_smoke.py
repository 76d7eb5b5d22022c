"""Every registered experiment in quick mode: well-formed, its claim, its table.

The one place an experiment's claim is checked.  For each name in the
registry, ``test_experiment_quick_mode_is_well_formed[EN]`` runs the
quick experiment once and checks that the result is well-formed, that
``CLAIMS[EN]`` holds — the qualitative shape the paper reports (who
wins, which way a knob bends a metric), never absolute numbers, which
are simulator artifacts — and that its table is byte-identical to the
committed ``benchmarks/results/eN.txt``.  After a change that is meant
to move a table, regenerate it with ``python scripts/run_experiments.py
EN``.  Marked slow: the sweep takes about 80 s, so CI's fast tier skips
it and the ``experiments`` job runs it.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment
from repro.harness.results import ExperimentResult
from repro.harness.sweep import derive_seed, run_sweep

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


@functools.cache
def _quick(name: str) -> ExperimentResult:
    """One quick run per experiment per session, shared by every test here."""
    return run_experiment(name)


def _committed_table(name: str) -> str:
    """The committed quick table, minus its wall-clock footer."""
    text = (RESULTS_DIR / f"{name.lower()}.txt").read_text()
    return "\n".join(line for line in text.splitlines() if not line.startswith("wall-clock:"))


def _e01(result):
    pct = result.column("violation_pct")
    assert pct[0] > 0, "harsh churn must produce violations in the baseline"
    # Violations shrink (or at worst stay flat) as lifetimes grow.
    assert pct[-1] <= pct[0] * 1.5


def _e02(result):
    scatter = [r for r in result.rows if r["backend"] == "scatter"]
    chord = [r for r in result.rows if r["backend"] == "chord"]
    assert all(r["violations"] == 0 for r in scatter), "Scatter must have zero violations"
    assert any(r["violations"] > 0 for r in chord), "the baseline should show violations"
    assert all(r["reads_checked"] > 50 for r in scatter), "need real read volume to claim zero"


def _e03(result):
    scatter = [r for r in result.rows if r["backend"] == "scatter"]
    no_churn = next(r for r in scatter if r["median_lifetime_s"] == "none")
    assert no_churn["availability"] > 0.999
    churned = [r for r in scatter if r["median_lifetime_s"] != "none"]
    assert all(r["availability"] > 0.95 for r in churned), "practical availability under churn"


def _e04(result):
    # Median latency under heavy churn stays within 3x of the quiet system.
    rows = {r["median_lifetime_s"]: r for r in result.rows}
    baseline = rows["none"]
    harshest = rows[min(k for k in rows if k != "none")]
    assert harshest["get_p50_ms"] < 3 * baseline["get_p50_ms"]
    assert harshest["put_p50_ms"] < 3 * baseline["put_p50_ms"]


def _e05(result):
    by_op = {r["operation"]: r for r in result.rows}
    for op in ("split", "merge", "migrate", "repartition", "join"):
        assert by_op[op]["samples"] > 0, f"no successful {op} samples"
    # Each structural operation completes within a second at LAN latency.
    for op in ("split", "merge", "migrate", "repartition"):
        assert by_op[op]["p50_ms"] < 1000


def _e06(result):
    # Quadrupling the nodes should at least triple throughput.
    throughput = result.column("ops_per_s")
    nodes = result.column("nodes")
    scale = (throughput[-1] / throughput[0]) / (nodes[-1] / nodes[0])
    assert scale > 0.75, f"scaling efficiency {scale:.2f} too low"


def _e07(result):
    # Failure probability falls monotonically with group size.
    harsh = {r["group_size"]: r for r in result.rows if r["median_lifetime_s"] == 100.0}
    assert harsh[1]["p_simulated"] >= harsh[3]["p_simulated"] >= harsh[5]["p_simulated"]
    assert harsh[7]["p_simulated"] < harsh[1]["p_simulated"]
    # Analytic model tracks the simulation within an order of magnitude.
    for size in (3, 5):
        sim_p = harsh[size]["p_simulated"]
        ana_p = harsh[size]["p_analytic"]
        if sim_p > 0 and ana_p > 0:
            assert 0.1 < sim_p / ana_p < 10


def _e08(result):
    # Load-median splits divide observed load nearly evenly; midpoint
    # splits leave a visibly hotter half.
    by_mode = {r["split_key_mode"]: r for r in result.rows}
    assert by_mode["load_median"]["hot_half_share_pct"] < by_mode["midpoint"]["hot_half_share_pct"]
    assert by_mode["load_median"]["hot_half_share_pct"] < 58
    assert by_mode["load_median"]["load_cv_pct"] <= by_mode["midpoint"]["load_cv_pct"] * 1.05


def _e09(result):
    by_mode = {r["leader_mode"]: r for r in result.rows}
    assert by_mode["latency"]["commit_p50_ms"] <= by_mode["static"]["commit_p50_ms"]


def _e10(result):
    by_backend = {r["backend"]: r for r in result.rows}
    assert by_backend["scatter"]["fetches"] > 100
    assert by_backend["chord"]["fetches"] > 100
    # Scatter's cached group routing beats per-key Chord lookups.
    assert by_backend["scatter"]["fetch_p50_ms"] <= by_backend["chord"]["fetch_p50_ms"]


def _e11(result):
    # Leases serve reads locally; without them every read is a Paxos round.
    by_mode = {r["lease_reads"]: r for r in result.rows}
    assert by_mode[True]["get_p50_ms"] < by_mode[False]["get_p50_ms"] * 0.8
    assert by_mode[True]["ops_per_s"] > by_mode[False]["ops_per_s"]


def _e12(result):
    # 2PC over Paxos groups never blocks; classic 2PC blocks forever.
    by_design = {r["design"].split(" ")[0]: r for r in result.rows}
    scatter = by_design["scatter"]
    classic = by_design["classic"]
    assert scatter["resolved"] == scatter["trials"], "Scatter must always resolve"
    assert scatter["max_block_s"] < 30
    assert classic["resolved"] == 0, "classic 2PC must stay blocked"
    assert classic["mean_block_s"] > 50


def _e13(result):
    rows = {(r["groups"], r["gossip"]): r for r in result.rows}
    biggest = max(g for g, _ in rows)
    with_gossip = rows[(biggest, True)]["mean_hops"]
    without = rows[(biggest, False)]["mean_hops"]
    assert with_gossip < without, "gossip must shorten cold lookups"
    assert with_gossip < 4
    # Without gossip, greedy successor walking scales with ring size.
    assert without > 1.5 * with_gossip


def _e14(result):
    throughput = result.column("ops_per_s")
    clients = result.column("clients")
    p50 = result.column("p50_ms")
    # Low load: throughput grows ~linearly with clients.
    assert throughput[1] > 3 * throughput[0]
    # High load: the marginal client buys much less than linear.
    low_gain = throughput[1] / clients[1]
    high_gain = (throughput[-1] - throughput[-2]) / (clients[-1] - clients[-2])
    assert high_gain < 0.6 * low_gain, "no saturation knee visible"
    # Latency climbs under load.
    assert p50[-1] > 1.3 * p50[0]


def _e15(result):
    by_mode = {r["batch"]: r for r in result.rows}
    assert by_mode[True]["msgs_per_op"] < 0.85 * by_mode[False]["msgs_per_op"]
    # Latency pays for the batch window but stays in the same regime.
    assert by_mode[True]["put_p50_ms"] < 2 * by_mode[False]["put_p50_ms"]


def _e16(result):
    scatter = [r for r in result.rows if r["backend"] == "scatter"]
    assert len(scatter) >= 3, "at least three nemesis scenarios"
    # Safety: Scatter never violates linearizability, whatever the nemesis.
    assert all(r["violations"] == 0 for r in scatter), "scatter must stay linearizable"
    # Liveness: Scatter resumes serving within the recovery cap after the
    # final heal, in every scenario.
    assert all(r["recovery_s"] < 20.0 for r in scatter), "scatter must recover"
    # Availability stays practical under faults (ops keep completing).
    assert all(r["availability"] > 0.8 for r in scatter)
    assert all(r["ops"] > 100 for r in scatter), "workload actually ran"


def _e17(result):
    rows = {r["compact_threshold"]: r for r in result.rows}
    assert set(rows) == {0, 64, 256, 1024}
    # The storm actually forced recoveries, and they replayed WAL records.
    assert all(r["recoveries"] > 0 for r in rows.values())
    # Compaction bounds replay: the tightest threshold replays less per
    # recovery than compaction-off, which accumulates the whole log.
    assert rows[64]["mean_replay"] < rows[0]["mean_replay"]
    # With compaction on, recoveries start from snapshots.
    assert rows[64]["snapshot_pct"] > 0.0
    # Availability stays practical under the storm at every threshold,
    # and the system serves ops again promptly after the final heal.
    assert all(r["availability"] > 0.8 for r in rows.values())
    assert all(r["recovery_s"] < 20.0 for r in rows.values())
    assert all(r["ops"] > 100 for r in rows.values()), "workload actually ran"


def _e18(result):
    rows = {r["backend"]: r for r in result.rows}
    assert set(rows) == {"scatter+repair", "chord+zave", "chord"}
    # The storm actually happened, and replacements arrived.
    assert all(r["losses"] > 10 for r in rows.values())
    assert all(r["joins"] > 0 for r in rows.values())
    # Replica maintenance loses no more keys than the naive baseline,
    # and the naive baseline demonstrably loses some: losing data is
    # what makes the race real.
    assert rows["chord+zave"]["keys_lost"] <= rows["chord"]["keys_lost"]
    assert rows["chord"]["keys_lost"] > 0
    # The system stayed available to the foreground workload throughout.
    assert all(r["availability"] > 0.9 for r in rows.values())
    assert all(r["ops"] > 100 for r in rows.values()), "workload actually ran"


def _e19(result):
    rows = result.rows
    baseline = next(r for r in rows if r["batch"] == 0 and r["pipe"] == 8)
    full = next(r for r in rows if r["batch"] > 0 and r["pipe"] > 0)
    assert full["ops_per_s"] >= 2 * baseline["ops_per_s"]
    # Amortization is visible in per-op constants, not just throughput.
    assert full["msgs_per_op"] < baseline["msgs_per_op"]
    assert full["fsyncs_per_op"] < 0.5 * baseline["fsyncs_per_op"]
    # The consistency bar does not move: every cell linearizes.
    assert all(r["violations"] == 0 for r in rows)


def _e20(result):
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


def _e21(result):
    nodes = result.column("nodes")
    assert nodes == sorted(nodes) and len(nodes) >= 2
    assert all(r["sim_events"] > 0 for r in result.rows)
    # Whole-ring caches + route tables: a warm client needs ~1 network
    # hop per op regardless of ring size.
    assert all(r["hops_per_op"] < 2.0 for r in result.rows)


CLAIMS = {
    "E1": _e01, "E2": _e02, "E3": _e03, "E4": _e04, "E5": _e05, "E6": _e06,
    "E7": _e07, "E8": _e08, "E9": _e09, "E10": _e10, "E11": _e11, "E12": _e12,
    "E13": _e13, "E14": _e14, "E15": _e15, "E16": _e16, "E17": _e17,
    "E18": _e18, "E19": _e19, "E20": _e20, "E21": _e21,
}


def test_every_experiment_has_a_claim_and_a_committed_table():
    assert set(CLAIMS) == set(ALL_EXPERIMENTS)
    missing = [n for n in ALL_EXPERIMENTS if not (RESULTS_DIR / f"{n.lower()}.txt").is_file()]
    assert not missing, f"no committed quick table for {missing}"


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_quick_mode_is_well_formed(name):
    result = _quick(name)
    assert isinstance(result, ExperimentResult)
    assert result.experiment.lower() == name.lower()
    assert result.title
    assert result.rows, f"{name} produced no rows"
    assert result.columns, f"{name} declared no columns"
    for row in result.rows:
        unknown = set(row) - set(result.columns)
        assert not unknown, f"{name}: row keys {unknown} missing from columns"
        for key, value in row.items():
            if isinstance(value, float):
                assert not math.isnan(value), f"{name}: NaN in column {key}"
    assert "wall_s" in result.perf, f"{name}: perf.wall_s not stamped"
    assert result.perf["wall_s"] >= 0.0
    CLAIMS[name](result)
    assert result.table() == _committed_table(name), (
        f"{name}'s quick table differs from benchmarks/results/{name.lower()}.txt; "
        f"if the change is intended, run `python scripts/run_experiments.py {name}`"
    )


@pytest.mark.slow
def test_e18_quick_covers_all_three_backends():
    """E18 (permanent-loss survival) exercises every backend variant."""
    result = _quick("E18")
    assert set(result.column("backend")) == {"scatter+repair", "chord+zave", "chord"}
    assert all(r["losses"] > 0 for r in result.rows), "the storm actually ran"
    assert all(r["keys_total"] > 0 for r in result.rows)


@pytest.mark.slow
def test_e21_quick_scales_the_ring_with_flat_routing():
    """E21 (large-ring scale-out): sizes ascend, routing stays ~1 hop."""
    result = _quick("E21")
    _e21(result)
    assert "total_sim_events" in result.perf


# The cells of `repro sweep E18 --count 48` (master seed 1).
SWEEP_CELLS = 48


@pytest.mark.slow
def test_e18_repair_over_seeds():
    """The survival claim over cells: Scatter's repair loop loses keys in
    fewer cells than naive Chord, and no more keys in total.  Whether one
    cell's victim sequences beat the race is seed luck, so the claim is
    checked over a sweep of cells."""
    seeds = [derive_seed(1, "E18", i) for i in range(SWEEP_CELLS)]
    sweep = run_sweep("E18", seeds, workers=2)
    lost = {
        backend: [r["keys_lost"] for r in sweep.merged.rows if r["backend"] == backend]
        for backend in ("scatter+repair", "chord+zave", "chord")
    }
    assert all(len(cells) == SWEEP_CELLS for cells in lost.values())
    losing = {backend: sum(k > 0 for k in cells) for backend, cells in lost.items()}
    assert losing["scatter+repair"] < losing["chord"]
    assert sum(lost["scatter+repair"]) <= sum(lost["chord"])
    assert losing["chord+zave"] < losing["chord"]
    # A group below quorum is a verdict on keys that are gone, never a
    # false alarm on a cell that kept them all.
    for row in sweep.merged.rows:
        if row["backend"] == "scatter+repair" and row["dead_groups"]:
            assert row["keys_lost"] > 0
