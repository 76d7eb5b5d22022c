"""Fault orchestration: one fault vocabulary, its runner, and scenarios.

This package turns fault injection from hand-coded per-test schedules
into a reusable layer:

- :class:`FaultTarget` adapts any deployment (Paxos cluster, Scatter,
  Chord) to the primitives a fault needs (crash, restart, lose a node,
  block, slow, drop or duplicate traffic, fault a disk).
- :mod:`repro.faults.schedule` is the vocabulary: a fault schedule is a
  list of :class:`FaultEntry` data, and :class:`ScheduleRunner` is the
  one runner that applies and heals it — for fuzz plans, repro files
  and nemesis scenarios alike.
- :mod:`repro.faults.nemesis` holds the nemesis generators (crash and
  node-loss storms, rolling and one-way partitions, drop bursts,
  gray-link slowdowns, duplicate delivery, disk faults), each drawing a
  schedule from a named RNG stream; a victim is a ``pick`` resolved
  against the live population when its entry fires.
- :mod:`repro.faults.scenarios` is the declarative registry: named fault
  schedules shared between tests, benchmarks, and the CLI
  (``python -m repro nemesis <scenario>``).
"""

from repro.faults.scenarios import (
    NEMESIS_KINDS,
    SCENARIOS,
    Scenario,
    build_scenario,
    get_scenario,
    scenario_names,
)
from repro.faults.schedule import FAULT_KINDS, FaultEntry, ScheduleRunner
from repro.faults.target import FaultTarget

__all__ = [
    "FAULT_KINDS",
    "NEMESIS_KINDS",
    "SCENARIOS",
    "FaultEntry",
    "FaultTarget",
    "Scenario",
    "ScheduleRunner",
    "build_scenario",
    "get_scenario",
    "scenario_names",
]
