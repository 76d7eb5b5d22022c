"""Nemesis scenarios as fault schedules: the one fault vocabulary.

Every nemesis draws a list of :class:`FaultEntry` data and the
:class:`ScheduleRunner` that applies fuzz plans applies it.  These tests
pin the pieces that make that safe: each scenario runs and bites, a
``pick`` victim resolves against the live population when it fires
(``min_alive`` skips it), an entry that names its node takes the plain
path, every generated kind is in the fuzzer's vocabulary, the two
by-construction rules hold, and a scenario schedule round-trips through
the repro-file format unchanged.
"""

import json

import pytest

from repro.check.plan import plan_from_dict, plan_to_dict, sample_plan
from repro.consensus import PaxosConfig
from repro.consensus.harness import build_cluster
from repro.faults import (
    FAULT_KINDS,
    NEMESIS_KINDS,
    FaultEntry,
    FaultTarget,
    ScheduleRunner,
    build_scenario,
    get_scenario,
    scenario_names,
)
from repro.faults.nemesis import crash_storm
from repro.harness.builders import DeploymentParams
from repro.harness.experiments import _nemesis_run
from repro.sim import ConstantLatency, SimNetwork, Simulator

FAST = PaxosConfig(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
)


def cluster(n=5, seed=1):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    hosts = build_cluster(sim, net, n=n, config=FAST)
    sim.run_for(1.0)
    return sim, FaultTarget.for_hosts(net, hosts)


@pytest.mark.parametrize("scenario", scenario_names())
def test_every_scenario_applies_faults_and_stays_linearizable(scenario):
    params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=3)
    metrics = _nemesis_run("scatter", scenario, 10.0, params)
    assert metrics["ops"] > 50, "workload actually ran"
    assert metrics["fault_events"] >= 1, "the scenario never applied a fault"
    assert metrics["violations"] == 0
    assert metrics["recovered"]


class TestPickResolution:
    def test_pick_resolves_against_the_live_population(self):
        sim, target = cluster()
        target.crash("n0")  # alive: n1..n4
        entry = FaultEntry(0.1, "crash", 1.0, {"pick": 7})
        runner = ScheduleRunner(sim, None, target, [entry])
        runner.start()
        sim.run_for(0.2)
        # alive_ids()[7 % 4] == "n4"
        assert target.down_ids() == ["n0", "n4"]
        assert runner.applied == ["0.100 crash"]
        sim.run_for(1.0)
        assert target.down_ids() == ["n0"], "the picked victim restarts on time"
        assert entry.params == {"pick": 7}, "the schedule stays plain data"

    def test_min_alive_skips_a_node_loss(self):
        sim, target = cluster()
        schedule = [
            FaultEntry(0.1, "node_loss", 0.0, {"pick": 0, "min_alive": 4}),
            FaultEntry(0.2, "node_loss", 0.0, {"pick": 0, "min_alive": 4}),
        ]
        runner = ScheduleRunner(sim, None, target, schedule)
        runner.start()
        sim.run_for(0.5)
        # The first fires with 5 alive and takes n0; the second finds 4,
        # which is not more than min_alive, and is skipped.
        assert target.lost_ids() == ["n0"]
        assert runner.applied == ["0.100 node_loss"]

    def test_node_entry_takes_the_plain_path(self):
        sim, target = cluster()
        target.crash("n2")
        entry = FaultEntry(0.1, "crash", 1.0, {"node": "n2"})
        runner = ScheduleRunner(sim, None, target, [entry])
        runner.start()
        sim.run_for(2.0)
        # A named victim is never re-resolved: crashing an already-down
        # node is a logged no-op, exactly as a fuzz plan replays it.
        assert runner.applied == ["0.100 crash"]
        assert target.down_ids() == ["n2"]
        assert entry.params == {"node": "n2"}


def scenario_schedule(name, window=60.0, seed=5):
    sim, target = cluster(n=9, seed=seed)
    return build_scenario(name, sim, target, window)


@pytest.mark.parametrize("scenario", scenario_names())
def test_generated_kinds_are_in_the_vocabulary(scenario):
    schedule = scenario_schedule(scenario)
    assert schedule, "a 60 s window draws at least one fault"
    assert {e.kind for e in schedule} <= set(FAULT_KINDS)
    assert [e.time for e in schedule] == sorted(e.time for e in schedule)
    assert all(0 <= e.time < 60.0 for e in schedule)


# Every nemesis in the registry except the two storms keeps one fault
# at a time.
ONE_AT_A_TIME = [
    pytest.param(kind, params, id=f"{name}/{i}:{kind}")
    for name in scenario_names()
    for i, (kind, params) in enumerate(get_scenario(name).nemeses)
    if kind not in ("crash_storm", "node_loss_storm")
]


@pytest.mark.parametrize(("kind", "params"), ONE_AT_A_TIME)
def test_one_fault_at_a_time(kind, params):
    sim, target = cluster(n=9)
    generate = NEMESIS_KINDS[kind]
    schedule = generate(sim.rng("one-at-a-time"), 60.0, target.node_ids(), **params)
    assert len(schedule) > 3
    for a, b in zip(schedule, schedule[1:]):
        assert b.time >= a.time + a.duration


def test_crash_storm_respects_max_down():
    sim, _ = cluster()
    schedule = crash_storm(
        sim.rng("max-down"), 200.0, [], interval=0.5, downtime=(1.0, 4.0), max_down=2
    )
    assert len(schedule) > 20
    for entry in schedule:
        down = [e for e in schedule if e.time <= entry.time < e.time + e.duration]
        assert len(down) <= 2


def test_chaos_schedule_survives_the_repro_format():
    plan = sample_plan(1, 0).with_schedule(scenario_schedule("chaos"))
    assert any("pick" in e.params for e in plan.schedule)
    again = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    assert again == plan
