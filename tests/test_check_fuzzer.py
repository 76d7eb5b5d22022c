"""Fuzzer determinism, demo-bug canary, and CLI behaviour.

The contract under test: a fuzz campaign is a pure function of its
master seed — same seed, same plans, same outcome, byte-identical repro
file — and the quorum-off-by-one demo bug is found, shrunk, and
replay-reproduced within a bounded budget.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.check import (
    FuzzConfig,
    iteration_seed,
    load_repro,
    replay,
    run_fuzz,
    run_plan,
    sample_plan,
)
from repro.check.plan import plan_from_dict, plan_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestPlanDeterminism:
    def test_iteration_seeds_stable_and_distinct(self):
        seeds = [iteration_seed(1, i) for i in range(50)]
        assert seeds == [iteration_seed(1, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds != [iteration_seed(2, i) for i in range(50)]

    def test_sample_plan_deterministic(self):
        a = sample_plan(7, 3)
        b = sample_plan(7, 3)
        assert a == b  # frozen dataclasses of tuples compare structurally
        assert sample_plan(7, 4) != a

    def test_plan_round_trips_through_dict(self):
        plan = sample_plan(11, 0)
        assert plan_from_dict(json.loads(json.dumps(plan_to_dict(plan)))) == plan


class TestRunDeterminism:
    def test_same_plan_same_outcome(self):
        plan = sample_plan(1, 0)
        first = run_plan(plan)
        second = run_plan(plan)
        assert first.history_digest == second.history_digest
        assert first.events == second.events
        assert (first.ops_total, first.ops_completed) == (
            second.ops_total,
            second.ops_completed,
        )
        assert first.failure == second.failure
        assert first.ops_completed > 0

    def test_short_clean_campaign(self):
        summary = run_fuzz(FuzzConfig(master_seed=1, iterations=3))
        assert not summary.found
        assert summary.iterations_run == 3
        assert summary.ops_total > 0
        assert summary.events_total > 0


@pytest.fixture(scope="module")
def demo_campaigns(tmp_path_factory):
    """Two independent demo-bug campaigns with the same master seed."""
    runs = []
    for name in ("a", "b"):
        out = tmp_path_factory.mktemp(f"demo_{name}")
        summary = run_fuzz(
            FuzzConfig(
                master_seed=1,
                iterations=10,
                bug="quorum-off-by-one",
                out_dir=str(out),
            )
        )
        runs.append(summary)
    return runs


class TestDemoBugCanary:
    def test_found_within_budget(self, demo_campaigns):
        summary = demo_campaigns[0]
        assert summary.found
        assert summary.failure is not None
        assert summary.failing_iteration is not None

    def test_shrunk_to_minimal_schedule(self, demo_campaigns):
        summary = demo_campaigns[0]
        shrink = summary.shrink
        assert shrink["runs"] > 0
        assert shrink["schedule_after"] <= shrink["schedule_before"]
        assert shrink["ops_after"] <= shrink["ops_before"]
        # The quorum bug needs only a small push; the shrinker should get
        # the fault schedule down to a handful of entries.
        assert shrink["schedule_after"] <= 3

    def test_repro_files_byte_identical_across_runs(self, demo_campaigns):
        first, second = demo_campaigns
        with open(first.repro_path, "rb") as fa, open(second.repro_path, "rb") as fb:
            assert fa.read() == fb.read()

    def test_replay_reproduces(self, demo_campaigns):
        data = load_repro(demo_campaigns[0].repro_path)
        reproduced, observed, recorded = replay(data)
        assert reproduced, f"replay diverged: observed={observed} recorded={recorded}"
        assert observed.kind == recorded.kind
        assert observed.name == recorded.name


class TestShardedCampaign:
    """``--workers N`` sharding must not change a campaign's verdict.

    Plans derive purely from (master_seed, iteration), so sharding the
    iteration space across processes can change only the bookkeeping
    (how many iterations were attempted before the stop), never which
    iteration fails first or what the repro file contains.
    """

    def test_sharded_clean_campaign_matches_serial(self):
        from repro.check import run_fuzz_sharded

        sharded = run_fuzz_sharded(FuzzConfig(master_seed=1, iterations=3), workers=2)
        serial = run_fuzz(FuzzConfig(master_seed=1, iterations=3))
        assert not sharded.found and not serial.found
        assert sharded.iterations_run == serial.iterations_run == 3
        assert sharded.ops_total == serial.ops_total
        assert sharded.events_total == serial.events_total

    @pytest.mark.slow
    def test_sharded_finds_demo_bug_and_replay_reproduces(self, tmp_path):
        from repro.check import run_fuzz_sharded

        sharded = run_fuzz_sharded(
            FuzzConfig(
                master_seed=1,
                iterations=4,
                bug="quorum-off-by-one",
                out_dir=str(tmp_path / "sharded"),
            ),
            workers=2,
        )
        serial = run_fuzz(
            FuzzConfig(
                master_seed=1,
                iterations=4,
                bug="quorum-off-by-one",
                out_dir=str(tmp_path / "serial"),
            )
        )
        assert sharded.found and serial.found
        # Min failing iteration across shards == the serial stop point.
        assert sharded.failing_iteration == serial.failing_iteration
        assert sharded.failure.kind == serial.failure.kind
        assert sharded.failure.name == serial.failure.name
        assert sharded.shrink == serial.shrink
        # Byte-identical repro file, and it replays in-process.
        with open(sharded.repro_path, "rb") as fa, open(serial.repro_path, "rb") as fb:
            assert fa.read() == fb.read()
        reproduced, observed, recorded = replay(load_repro(sharded.repro_path))
        assert reproduced, f"replay diverged: observed={observed} recorded={recorded}"


class TestRepairRaceCanary:
    """The repair-race demo bug: the roster says healed, replication lies.

    The buggy repair skips the state-transfer transaction and commits
    the new member straight into the Paxos config, so the group *looks*
    refilled while the seat holds nothing — exactly what the
    replication-floor invariant counts (attending replicas, not roster
    lines).  Only bites on plans with a node_loss fault.
    """

    def test_found_shrunk_and_replayed(self, tmp_path):
        summary = run_fuzz(
            FuzzConfig(
                master_seed=29,
                iterations=5,
                bug="repair-race",
                out_dir=str(tmp_path),
            )
        )
        assert summary.found
        assert summary.failure.kind == "invariant"
        assert summary.failure.name == "replication-floor"
        assert summary.shrink["schedule_after"] <= summary.shrink["schedule_before"]
        data = load_repro(summary.repro_path)
        reproduced, observed, recorded = replay(data)
        assert reproduced, f"replay diverged: observed={observed} recorded={recorded}"
        assert observed.name == recorded.name == "replication-floor"


class TestRefusalCanary:
    """The refusal-as-answer demo bug: a refusal reaches the client as
    an answer.

    An op refused at apply (its group froze for a group operation after
    the op was proposed) comes back as ``status="ok"`` with a ``busy``
    result, the client takes it as final, and the checker flags the
    completed op as ``client_contract``.
    """

    def test_found_shrunk_and_replayed(self, tmp_path):
        summary = run_fuzz(
            FuzzConfig(
                master_seed=11,
                iterations=5,
                bug="refusal-as-answer",
                out_dir=str(tmp_path),
            )
        )
        assert summary.found
        assert summary.failure.kind == "linearizability"
        assert summary.failure.name == "client_contract"
        assert summary.shrink["ops_after"] < summary.shrink["ops_before"]
        data = load_repro(summary.repro_path)
        reproduced, observed, recorded = replay(data)
        assert reproduced, f"replay diverged: observed={observed} recorded={recorded}"
        assert observed.name == recorded.name == "client_contract"


class TestReproFileNames:
    def test_two_bugs_on_one_plan_write_two_files(self, tmp_path):
        # Canaries that fail on the same plan must not overwrite each
        # other's repro file; a clean campaign keeps repro-<seed>.json.
        from repro.check.fuzzer import FuzzSummary, _finalize_failure
        from repro.check.runner import FailureSummary, FuzzOutcome

        plan = sample_plan(11, 1)
        failure = FailureSummary("linearizability", "stale_read", "x", 1.0)
        outcome = FuzzOutcome(plan, failure, [], 0, 0, 0, 0)
        paths = []
        for bug in ("stale-follower-read", "refusal-as-answer", None):
            summary = FuzzSummary(master_seed=11)
            config = FuzzConfig(bug=bug, out_dir=str(tmp_path), shrink=False)
            _finalize_failure(config, summary, 1, plan, outcome, lambda _line: None)
            paths.append(os.path.basename(summary.repro_path))
        assert paths == [
            f"repro-stale-follower-read-{plan.sim_seed}.json",
            f"repro-refusal-as-answer-{plan.sim_seed}.json",
            f"repro-{plan.sim_seed}.json",
        ]
        assert sorted(os.listdir(tmp_path)) == sorted(paths)
        assert load_repro(tmp_path / paths[0])["demo_bug"] == "stale-follower-read"


class TestCli:
    def test_clean_fuzz_exits_zero_with_summary(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "--iterations", "2",
             "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=_cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["found"] is False
        assert summary["iterations_run"] == 2

    def test_unknown_demo_bug_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz", "--iterations", "1",
             "--demo-bug", "no-such-bug", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=_cli_env(), timeout=120,
        )
        assert proc.returncode == 2

    def test_replay_cli_round_trip(self, demo_campaigns):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fuzz",
             "--replay", demo_campaigns[0].repro_path],
            capture_output=True, text=True, env=_cli_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
