"""Experiment harness: builders, metric collection, and the experiment
entry points (E1–E21) that regenerate the paper's tables and figures."""

from repro.harness.results import ExperimentResult, format_table
from repro.harness.builders import (
    DeploymentParams,
    build_chord_deployment,
    build_scatter_deployment,
)
from repro.harness.metrics import workload_metrics

__all__ = [
    "DeploymentParams",
    "ExperimentResult",
    "build_chord_deployment",
    "build_scatter_deployment",
    "format_table",
    "workload_metrics",
]
