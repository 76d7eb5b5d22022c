"""Known, unfixed fuzz failures still fail exactly as recorded.

Each ``docs/open-fuzz-failures/repro-<seed>.json`` is a shrunk fuzz plan
that breaks an invariant at HEAD.  Replaying it must reproduce the
recorded verdict: the same invariant, detail and simulated time.  A
change that makes one stop failing — a fix, or an accident that hides
the bug — fails here until the file moves to ``tests/fuzz_corpus/``,
where ``tests/test_fuzz_corpus.py`` keeps it fixed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.fuzzer import replay
from repro.check.repro_file import load_repro

OPEN_FAILURES = sorted(
    (Path(__file__).resolve().parents[1] / "docs" / "open-fuzz-failures").glob("*.json")
)


@pytest.mark.parametrize("path", OPEN_FAILURES, ids=lambda path: path.stem)
def test_open_failure_still_reproduces(path):
    reproduced, observed, recorded = replay(load_repro(path))
    assert reproduced, f"{path.name} no longer fails as recorded: {observed}"
    assert observed.to_dict() == recorded.to_dict()
