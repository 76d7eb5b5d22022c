"""Fixed fuzz failures stay fixed.

Each ``tests/fuzz_corpus/repro-<seed>.json`` is a shrunk fuzz plan that
once broke an invariant or linearizability and was fixed; its file
moved here from ``docs/open-fuzz-failures/``.  Replaying it must run
clean: a change that brings the failure back, under any verdict, fails
here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.fuzzer import replay
from repro.check.repro_file import load_repro

FIXED_FAILURES = sorted((Path(__file__).resolve().parent / "fuzz_corpus").glob("*.json"))


@pytest.mark.parametrize("path", FIXED_FAILURES, ids=lambda path: path.stem)
def test_fixed_failure_stays_fixed(path):
    _reproduced, observed, recorded = replay(load_repro(path))
    assert observed is None, f"{path.name} (once {recorded}) fails again: {observed}"
