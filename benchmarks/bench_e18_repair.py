"""E18: data survival under permanent node loss (self-healing vs baselines).

Unlike the transient-churn experiments, every departure here is a
crashed machine with a wiped disk; replacement capacity joins at the
loss rate.  Survival therefore measures the *re-replication race*:
Scatter's repair loop (pull-in migrates through the Paxos log) and the
Zave-hardened Chord baseline keep pre-storm keys readable in most
cells, while naive Chord — which never re-replicates — bleeds them.
Whether one cell's five victim sequences happen to beat the race is
seed luck, so the Scatter claim is checked over a sweep of cells.
"""

from conftest import run_once, save_result
from repro.harness.experiments import run_e18
from repro.harness.sweep import derive_seed, run_sweep

# The cells of `repro sweep E18 --count 48` (master seed 1).
SWEEP_CELLS = 48


def test_e18_repair(benchmark):
    result = run_once(benchmark, lambda: run_e18(quick=True))
    save_result(result)
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


def test_e18_repair_over_seeds(benchmark):
    """The survival claim over cells: Scatter's repair loop loses keys in
    fewer cells than naive Chord, and no more keys in total."""
    seeds = [derive_seed(1, "E18", i) for i in range(SWEEP_CELLS)]
    sweep = run_once(benchmark, lambda: run_sweep("E18", seeds, workers=2))
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
