"""scripts/ab.py: the working tree against a git revision, ledger
workloads in alternating pairs."""

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
        for name in ("host_peak_rss_mb", "host_us_per_op", "sim_p99_ms"):
            assert any(line.split()[0] == name and "wins" in line for line in block), name
    table = lines[lines.index("fingerprints: working tree vs HEAD") + 1:]
    assert [row.split()[0] for row in table[:2]] == ["kv_mixed", "read_fanout"]
    assert all(row.endswith("equal") for row in table[:2])
    assert lines[-1].endswith("2 equal, 0 differ -> equal")
    assert _listing(benchmarks) == before  # nothing written under benchmarks/
