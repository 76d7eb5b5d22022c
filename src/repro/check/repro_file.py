"""Repro files: a failing fuzz iteration as a self-contained JSON file.

``repro-<seed>.json`` (``repro-<bug>-<seed>.json`` when a demo bug was
planted, see :func:`repro_name`) carries the full (shrunk) plan, the
demo-bug mode it ran under, and the failure it produced.
Serialization is canonical (sorted keys, fixed indent, no wall-clock
timestamps), so the same failure always produces byte-identical files —
which is what lets the determinism test compare them directly and lets
``--replay`` assert the failure reproduces exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.check.plan import PLAN_FORMAT, FuzzPlan, plan_from_dict, plan_to_dict
from repro.check.runner import FailureSummary


def repro_name(sim_seed: int, bug: str | None) -> str:
    """The repro file name for a failing plan's simulator seed.

    A planted demo bug is part of the name: two campaigns with different
    bugs can fail on the same plan, and each keeps its own file.
    """
    return f"repro-{bug}-{sim_seed}.json" if bug else f"repro-{sim_seed}.json"


def repro_dict(
    plan: FuzzPlan,
    failure: FailureSummary,
    bug: str | None,
    shrink: dict[str, Any] | None = None,
) -> dict[str, Any]:
    return {
        "format": PLAN_FORMAT,
        "demo_bug": bug,
        "failure": failure.to_dict(),
        "plan": plan_to_dict(plan),
        "shrink": shrink or {},
    }


def dump_repro(data: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def repro_bytes(data: dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def load_repro(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if data.get("format") != PLAN_FORMAT:
        raise ValueError(
            f"unsupported repro format {data.get('format')!r}; expected {PLAN_FORMAT}"
        )
    return data


def plan_of(data: dict[str, Any]) -> FuzzPlan:
    return plan_from_dict(data["plan"])


def failure_of(data: dict[str, Any]) -> FailureSummary:
    return FailureSummary.from_dict(data["failure"])
