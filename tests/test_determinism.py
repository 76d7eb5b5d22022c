"""Determinism tests: same seed, same history — the simulator's contract."""

import pytest

from repro.faults import FaultTarget, ScheduleRunner, build_scenario
from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.harness.experiments import run_e05, run_e12
from repro.policies import ScatterPolicy
from repro.workloads import ChurnProcess, UniformKeys, exponential_lifetime
from repro.workloads.driver import ClosedLoopWorkload


def run_churn_fingerprint(seed):
    params = DeploymentParams(n_nodes=15, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(
        params, policy=ScatterPolicy(target_size=5, split_size=11, merge_size=3)
    )
    sim, system, clients = deployment.sim, deployment.system, deployment.clients
    workload = ClosedLoopWorkload(sim, clients, UniformKeys(20), read_fraction=0.5)
    workload.start()
    churn = ChurnProcess(sim, system, exponential_lifetime(100.0))
    churn.start()
    sim.run_for(30.0)
    churn.stop()
    workload.stop()
    sim.run_for(1.0)
    records = workload.all_records()
    return (
        sim.events_processed,
        churn.departures,
        [(r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9)) for r in records],
        sorted(system.active_groups()),
    )


class TestDeterminism:
    def test_full_stack_run_is_bit_identical(self):
        assert run_churn_fingerprint(3) == run_churn_fingerprint(3)

    def test_different_seeds_differ(self):
        assert run_churn_fingerprint(3) != run_churn_fingerprint(4)

    def test_experiment_rows_reproduce(self):
        a = run_e12(quick=True, seed=9)
        b = run_e12(quick=True, seed=9)
        assert a.rows == b.rows

    def test_e05_reproduces(self):
        a = run_e05(quick=True, seed=2)
        b = run_e05(quick=True, seed=2)
        assert a.rows == b.rows


def run_nemesis_fingerprint(seed, scenario="chaos"):
    """One faulted run, reduced to (fault schedule, client history)."""
    params = DeploymentParams(n_nodes=12, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(params)
    sim, system, clients = deployment.sim, deployment.system, deployment.clients
    workload = ClosedLoopWorkload(sim, clients, UniformKeys(20), read_fraction=0.5)
    workload.start()
    target = FaultTarget.for_system(system)
    schedule = build_scenario(scenario, sim, target, 20.0)
    runner = ScheduleRunner(sim, system, target, schedule)
    runner.start()
    sim.run_for(20.0)
    runner.stop()
    sim.run_for(3.0)
    workload.stop()
    history = tuple(
        (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9))
        for r in workload.all_records()
    )
    return (tuple(schedule), tuple(runner.applied)), history


class TestNemesisDeterminism:
    """Same (scenario, seed) => identical fault schedule AND history."""

    def test_same_scenario_and_seed_reproduce(self):
        a = run_nemesis_fingerprint(5)
        b = run_nemesis_fingerprint(5)
        assert a[0] == b[0], "fault schedules diverged"
        assert a[1] == b[1], "client histories diverged"

    def test_different_seeds_give_different_schedules(self):
        a = run_nemesis_fingerprint(5)
        b = run_nemesis_fingerprint(6)
        assert a[0] != b[0]
