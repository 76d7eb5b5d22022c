"""scripts/ab.py: the working tree against a git revision, ledger
workloads in alternating pairs."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _listing(top: str) -> list[str]:
    """Every file under ``top`` but the interpreter's bytecode cache."""
    return sorted(
        os.path.join(d, f) for d, _, files in os.walk(top) for f in files
        if "__pycache__" not in d
    )


def _in_git_checkout() -> bool:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, check=False)
    return done.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_ab_against_head_sees_equal_fingerprints():
    benchmarks = os.path.join(ROOT, "benchmarks")
    before = _listing(benchmarks)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ab.py"), "HEAD",
         "--workload", "kv_mixed", "--workload", "read_fanout",
         "--pairs", "1", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("ab: working tree vs HEAD on kv_mixed")
    second = next(i for i, line in enumerate(lines) if "on read_fanout" in line)
    for block in (lines[1:second], lines[second + 1:]):
        rows = {line.split()[0]: line for line in block if "wins" in line}
        for name in ("host_peak_rss_mb", "host_us_per_op", "sim_p99_ms"):
            assert "spread" in rows[name], name
            assert rows[name].split()[-1] in ("same", "within", "better", "worse"), name
        # The simulation is deterministic: an equal fingerprint reads equal.
        assert rows["sim_p99_ms"].endswith(" same")
    table = lines[lines.index("fingerprints: working tree vs HEAD") + 1:]
    assert [row.split()[0] for row in table[:2]] == ["kv_mixed", "read_fanout"]
    assert all(row.endswith("equal") for row in table[:2])
    assert lines[-1].endswith("2 equal, 0 differ -> equal")
    assert _listing(benchmarks) == before  # nothing written under benchmarks/


def _ab_module():
    spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "scripts", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_checks_spread_first_and_claims_a_gain_only_by_the_gain_rule():
    verdict = _ab_module().verdict
    lower = {"bound": 0.25, "better": "lower"}
    steady = [100.0, 101.0, 99.0, 100.0, 100.0]
    assert verdict(lower, steady, list(steady), 1.0) == "same"
    assert verdict(lower, [130.0, 131.0, 129.0, 130.0, 130.0], steady, 1.3) == "worse"
    assert verdict(lower, [60.0, 61.0, 59.0, 60.0, 60.0], steady, 0.6) == "better"
    # A median past the bound won in 1 pair of 5 is not a gain.
    assert verdict(lower, [60.0, 120.0, 110.0, 115.0, 59.0], steady, 0.6) == "within"
    # REV spreads wider than the bound: neither side can be told apart...
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert verdict(lower, [130.0, 70.0, 130.0, 135.0, 130.0], noisy, 1.3) == "unresolved"
    # ...unless every working-tree run beats every REV run.
    assert verdict(lower, [40.0, 41.0, 39.0, 40.0, 40.0], noisy, 0.4) == "better"
