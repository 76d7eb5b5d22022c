"""Integration tests for the Multi-Paxos replica over the simulated network."""

import pytest

from repro.consensus import Command, NotLeader, PaxosConfig
from repro.consensus.harness import PaxosHost, build_cluster, current_leader, record_sends
from repro.consensus.replica import PaxosReplica
from repro.harness.builders import EXPERIMENT_PAXOS
from repro.sim import ConstantLatency, LogNormalLatency, SimNetwork, Simulator

FAST = PaxosConfig(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
)


def make_cluster(n=3, seed=0, drop_prob=0.0, latency=None, config=FAST):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=latency or ConstantLatency(0.005), drop_prob=drop_prob)
    hosts = build_cluster(sim, net, n=n, config=config)
    sim.run_for(1.0)  # let the initial leader establish itself
    return sim, net, hosts


def committed_payloads(host):
    return [c.payload for _s, c in host.applied if c.kind == "app"]


class TestReplication:
    def test_initial_leader_establishes(self):
        sim, net, hosts = make_cluster()
        leader = current_leader(hosts)
        assert leader is hosts[0]

    def test_propose_and_apply_on_all(self):
        sim, net, hosts = make_cluster()
        f = hosts[0].propose(Command.app("x"))
        sim.run_for(1.0)
        assert f.result() == "x"
        for host in hosts:
            assert committed_payloads(host) == ["x"]

    def test_many_proposals_apply_in_order_everywhere(self):
        sim, net, hosts = make_cluster(n=5)
        futures = [hosts[0].propose(Command.app(i)) for i in range(50)]
        sim.run_for(3.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert committed_payloads(host) == list(range(50))

    def test_non_leader_rejects_proposals(self):
        sim, net, hosts = make_cluster()
        f = hosts[1].propose(Command.app("x"))
        assert f.done
        with pytest.raises(NotLeader) as exc:
            f.result()
        assert exc.value.leader_hint == "n0"

    def test_replication_with_message_loss(self):
        sim, net, hosts = make_cluster(n=3, drop_prob=0.1, seed=3)
        futures = [hosts[0].propose(Command.app(i)) for i in range(20)]
        sim.run_for(20.0)
        leader = current_leader(hosts)
        assert leader is not None
        # Every committed host agrees on the applied prefix.
        logs = [committed_payloads(h) for h in hosts]
        longest = max(logs, key=len)
        for log in logs:
            assert log == longest[: len(log)]
        assert set(range(20)) <= set(longest)

    def test_replication_with_variable_latency(self):
        sim, net, hosts = make_cluster(latency=LogNormalLatency(0.004, 0.6), seed=7)
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        sim.run_for(10.0)
        done = [f for f in futures if f.done and f.exception is None]
        assert len(done) == 30
        logs = [committed_payloads(h) for h in hosts]
        longest = max(logs, key=len)
        for log in logs:
            assert log == longest[: len(log)]


class TestFailover:
    def test_new_leader_elected_after_crash(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[0].crash()
        sim.run_for(5.0)
        leader = current_leader(hosts)
        assert leader is not None
        assert leader is not hosts[0]

    def test_committed_entries_survive_failover(self):
        sim, net, hosts = make_cluster(n=3)
        f = hosts[0].propose(Command.app("durable"))
        sim.run_for(1.0)
        assert f.result() == "durable"
        hosts[0].crash()
        sim.run_for(5.0)
        leader = current_leader(hosts)
        assert leader is not None
        f2 = leader.propose(Command.app("after"))
        sim.run_for(2.0)
        assert f2.result() == "after"
        assert committed_payloads(leader) == ["durable", "after"]

    def test_no_two_leaders_with_live_lease(self):
        # At every instant, at most one replica both leads and holds a lease.
        sim, net, hosts = make_cluster(n=5, seed=11)
        violations = []

        def check():
            holders = [h for h in hosts if h.alive and h.replica.lease_active]
            if len(holders) > 1:
                violations.append((sim.now, [h.node_id for h in holders]))
            sim.schedule(0.05, check)

        sim.schedule(0.0, check)
        hosts[0].crash()
        sim.run_until(sim.now + 10.0)
        assert violations == []

    def test_progress_resumes_after_leader_restart(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[0].crash()
        sim.run_for(5.0)
        hosts[0].restart()
        sim.run_for(5.0)
        leader = current_leader(hosts)
        assert leader is not None
        f = leader.propose(Command.app("post-restart"))
        sim.run_for(2.0)
        assert f.result() == "post-restart"
        # The restarted node catches up too.
        sim.run_for(3.0)
        assert "post-restart" in committed_payloads(hosts[0])

    def test_minority_cannot_commit(self):
        sim, net, hosts = make_cluster(n=3)
        # Partition the leader away from both followers.
        net.partition({"n0"}, {"n1", "n2"})
        sim.run_for(3.0)
        f = hosts[0].propose(Command.app("doomed"))
        sim.run_for(3.0)
        # Either rejected outright (stepped down) or still pending; never applied.
        assert "doomed" not in committed_payloads(hosts[1])
        assert "doomed" not in committed_payloads(hosts[2])

    def test_partitioned_majority_elects_and_commits(self):
        sim, net, hosts = make_cluster(n=5)
        minority = {"n0", "n1"}
        majority = {"n2", "n3", "n4"}
        net.partition(minority, majority)
        sim.run_for(8.0)
        leaders = [h for h in hosts if h.replica.is_leader and h.node_id in majority]
        assert len(leaders) == 1
        f = leaders[0].propose(Command.app("maj"))
        sim.run_for(3.0)
        assert f.result() == "maj"

    def test_heal_reconciles_divergent_views(self):
        sim, net, hosts = make_cluster(n=5)
        net.partition({"n0", "n1"}, {"n2", "n3", "n4"})
        sim.run_for(8.0)
        new_leader = next(h for h in hosts if h.replica.is_leader and h.node_id in {"n2", "n3", "n4"})
        new_leader.propose(Command.app("during"))
        sim.run_for(2.0)
        net.heal()
        sim.run_for(8.0)
        # Old leader has stepped down and learned the new entries.
        assert "during" in committed_payloads(hosts[0])
        logs = [committed_payloads(h) for h in hosts]
        longest = max(logs, key=len)
        for log in logs:
            assert log == longest[: len(log)]


class TestLeases:
    def test_lease_read_local_and_fast(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[0].propose(Command.app("w"))
        sim.run_for(1.0)
        t0 = sim.now
        f = hosts[0].replica.read(lambda: "read-value")
        assert f.done  # lease read resolves synchronously
        assert f.result() == "read-value"
        assert sim.now == t0

    def test_read_without_lease_goes_through_log(self):
        config = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.5,
            lease_duration=0.35,
            lease_reads=False,
        )
        sim, net, hosts = make_cluster(config=config)
        f = hosts[0].replica.read(lambda: "v")
        assert not f.done  # must replicate first
        sim.run_for(1.0)
        assert f.exception is None

    def test_read_on_follower_fails(self):
        sim, net, hosts = make_cluster()
        f = hosts[1].replica.read(lambda: "v")
        with pytest.raises(NotLeader):
            f.result()

    def test_new_leader_has_no_lease_until_barrier(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[0].crash()
        # Immediately after the crash no replica can serve a lease read.
        holders = [h for h in hosts[1:] if h.replica.lease_active]
        assert holders == []
        sim.run_for(8.0)
        leader = current_leader(hosts)
        assert leader is not None
        assert leader.replica.lease_active


class TestReconfiguration:
    def test_add_member_replicates_to_it(self):
        sim, net, hosts = make_cluster(n=3)
        new = PaxosHost("n3", sim, net, members=["n3"], config=FAST)
        # A solo member list means n3 would elect itself; retire that by
        # constructing it as a learner: easiest is to add via config first.
        f = hosts[0].propose(Command.config("add", "n3"))
        sim.run_for(2.0)
        assert f.exception is None
        assert "n3" in hosts[0].replica.members
        f2 = hosts[0].propose(Command.app("to-all"))
        sim.run_for(3.0)
        assert f2.result() == "to-all"

    def test_remove_member_shrinks_config(self):
        sim, net, hosts = make_cluster(n=5)
        f = hosts[0].propose(Command.config("remove", "n4"))
        sim.run_for(2.0)
        assert f.exception is None
        assert hosts[0].replica.members == ["n0", "n1", "n2", "n3"]
        assert hosts[4].replica.retired

    def test_removed_member_stops_participating(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[0].propose(Command.config("remove", "n2"))
        sim.run_for(2.0)
        f = hosts[0].propose(Command.app("post-remove"))
        sim.run_for(2.0)
        assert f.result() == "post-remove"
        assert "post-remove" not in committed_payloads(hosts[2])

    def test_remove_dead_member_restores_fault_tolerance(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[2].crash()
        f = hosts[0].propose(Command.config("remove", "n2"))
        sim.run_for(2.0)
        assert f.exception is None
        # Now a 2-member group: it can still commit with both alive.
        f2 = hosts[0].propose(Command.app("two-member"))
        sim.run_for(2.0)
        assert f2.result() == "two-member"

    def test_proposals_queued_behind_config_change_apply_after(self):
        sim, net, hosts = make_cluster(n=3)
        fc = hosts[0].propose(Command.config("remove", "n2"))
        fa = hosts[0].propose(Command.app("queued"))
        sim.run_for(3.0)
        assert fc.exception is None
        assert fa.result() == "queued"

    def test_suspected_members_reports_dead(self):
        sim, net, hosts = make_cluster(n=3)
        hosts[2].crash()
        sim.run_for(5.0)
        assert hosts[0].replica.suspected_members(dead_after=2.0) == ["n2"]


ACCEPT_TYPES = {"Accept", "Accepted"}


class TestLeaderVotesLocally:
    @pytest.mark.parametrize("n", [3, 5])
    def test_chosen_slot_costs_one_accept_out_one_accepted_in_per_peer(self, n):
        sim = Simulator(seed=0)
        net = SimNetwork(sim, latency=ConstantLatency(0.005))
        hosts = build_cluster(sim, net, n=n, config=FAST)
        sent = record_sends(hosts)
        sim.run_for(1.0)  # election + read barrier
        settled = len(sent)
        f = hosts[0].propose(Command.app("x"))
        sim.run_for(0.05)
        assert f.result() == "x"
        slot_msgs = [m for m in sent[settled:] if m[2] in ACCEPT_TYPES]
        peers = [f"n{i}" for i in range(1, n)]
        assert sorted(slot_msgs) == (  # 2 * (n - 1), none of them the leader's own
            [("n0", peer, "Accept") for peer in peers]
            + [(peer, "n0", "Accepted") for peer in peers]
        )
        # Nothing in steady state is self-addressed, and no accept
        # traffic ever was — the election's included.
        assert not [m for m in sent[settled:] if m[0] == m[1]]
        assert not [m for m in sent if m[0] == m[1] and m[2] in ACCEPT_TYPES]

    def test_coalesced_run_is_not_self_addressed_either(self):
        config = PaxosConfig(
            heartbeat_interval=0.1, election_timeout=0.5, lease_duration=0.35,
            retry_interval=0.3,
        )
        sim = Simulator(seed=0)
        net = SimNetwork(sim, latency=ConstantLatency(0.005))
        hosts = build_cluster(sim, net, n=3, config=config)
        sent = record_sends(hosts)
        sim.run_for(1.0)
        settled = len(sent)
        futures = [hosts[0].propose(Command.app(i)) for i in range(6)]
        sim.run_for(0.05)
        assert [f.result() for f in futures] == list(range(6))
        # A burst of six slots: six Accepts out and six Accepteds back
        # per peer, none of them self-addressed.
        slot_msgs = sorted(m for m in sent[settled:] if m[2] in ACCEPT_TYPES)
        assert slot_msgs == 6 * [("n0", "n1", "Accept")] + 6 * [("n0", "n2", "Accept")] + (
            6 * [("n1", "n0", "Accepted")] + 6 * [("n2", "n0", "Accepted")]
        )

    def test_one_member_group_commits_without_the_network(self):
        sim, net, hosts = make_cluster(n=1)
        assert current_leader(hosts) is hosts[0]
        sent = net.stats.sent
        futures = [hosts[0].propose(Command.app(i)) for i in range(5)]
        # No peer to wait for and no durability model: chosen in place.
        assert [f.result() for f in futures] == list(range(5))
        assert committed_payloads(hosts[0]) == list(range(5))
        sim.run_for(1.0)
        assert net.stats.sent == sent

    def test_one_member_group_reconfigures_in_place(self):
        # A config change chosen synchronously must clear its barrier
        # before the proposals queued behind it are issued.
        sim, net, hosts = make_cluster(n=1)
        joiner = PaxosHost("n9", sim, net, members=["n0"], config=FAST)
        add = hosts[0].propose(Command.config("add", "n9"))
        after = hosts[0].propose(Command.app("after"))
        assert add.done and add.exception is None
        assert hosts[0].replica.members == ["n0", "n9"]
        sim.run_for(2.0)
        assert after.result() == "after"
        assert committed_payloads(joiner) == ["after"]

    def test_leader_removed_from_members_stops_counting_itself(self):
        from repro.storage.disk import StorageConfig

        sim = Simulator(seed=0)
        net = SimNetwork(sim, latency=ConstantLatency(0.005))
        hosts = build_cluster(sim, net, n=3, config=FAST, storage=StorageConfig())
        sim.run_for(1.0)
        leader = hosts[0]
        # A slow disk holds the leader's own vote back until after the
        # peers alone have chosen — and it has applied — its removal.
        leader.disk.fsync_factor = 100.0
        removal = leader.propose(Command.config("remove", "n0"))
        sim.run_for(0.1)
        assert removal.done and removal.exception is None
        assert leader.replica.retired and "n0" not in leader.replica.members
        acked_before = dict(leader.replica.storage.acked_accepts)
        sim.run_for(0.5)  # the late fsync completes: a vote from a non-member
        assert not leader.replica.is_leader and not leader.replica._pending
        # It is durable, so the ledger notes it; it just no longer counts.
        assert set(leader.replica.storage.acked_accepts) >= set(acked_before)
        sim.run_for(2.0)
        new_leader = current_leader(hosts[1:])
        assert new_leader is not None
        f = new_leader.propose(Command.app("without-n0"))
        sim.run_for(1.0)
        assert f.result() == "without-n0"
        assert "without-n0" not in committed_payloads(leader)

    def test_candidate_whose_own_acceptor_promised_higher_does_not_take_office(self, monkeypatch):
        # n1 campaigns, promises n2's higher Prepare mid-campaign, then
        # collects a majority for its own ballot.  Its acceptor can no
        # longer vote for what it would propose (and no self-addressed
        # Accept is left to be nacked), so it must stand aside.
        from repro.obs import Tracer, tracing

        with tracing(Tracer()) as tracer:
            sim, net, hosts = make_cluster()
        hosts[0].crash()
        sim.run_for(0.4)  # the dead leader's lease guard lapses; no timeout yet
        n1, n2 = hosts[1].replica, hosts[2].replica
        n1._start_campaign()
        sim.run_for(0.002)
        n2._start_campaign()  # has not seen n1's Prepare: same round, higher id
        assert n2.ballot > n1.ballot
        took_office = []
        become = PaxosReplica._become_leader

        def watched(replica):
            become(replica)
            if replica is n1:
                took_office.append(replica.is_leader)

        monkeypatch.setattr(PaxosReplica, "_become_leader", watched)
        sim.run_for(0.02)
        assert n1.promised == n2.ballot
        assert took_office == [False]  # had its majority, stood aside
        outcomes = [
            s.attrs.get("outcome") for s in tracer.spans_of("paxos.election")
            if s.attrs["replica"] == "n1"
        ]
        assert outcomes == ["preempted"]
        assert current_leader(hosts[1:]) is hosts[2]
        f = hosts[2].propose(Command.app("after-duel"))
        sim.run_for(0.5)
        assert f.result() == "after-duel"
        assert committed_payloads(hosts[1]) == ["after-duel"]


DEFAULT = PaxosConfig()
HB = DEFAULT.heartbeat_interval
STRETCH = DEFAULT.lease_duration - HB


def idle_cluster(config=DEFAULT, seed=0):
    """A 3-replica group past its election, read barrier and the round after."""
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    hosts = build_cluster(sim, net, n=3, config=config)
    sim.run_for(2.0)
    return sim, hosts


def leader_rounds(sim, host, drop=lambda round_no, dst, kind: False):
    """Send times of ``host``'s heartbeat rounds from now on.  A message
    for which ``drop(round_no, dst, kind)`` holds is not sent at all;
    ``round_no`` numbers the rounds recorded so far from 0."""
    times = []
    send = host.replica.transport.send

    def recording(dst, msg):
        kind = type(msg).__name__
        if kind == "Heartbeat" and (not times or times[-1] != sim.now):
            times.append(sim.now)
        if not drop(len(times) - 1, dst, kind):
            send(dst, msg)

    host.replica.transport.send = recording
    return times


def next_round(sim, rounds):
    """Run until another round is recorded; return its send time."""
    seen = len(rounds)
    while len(rounds) == seen:
        sim.run_for(0.001)
    return rounds[-1]


def gaps(times):
    return [b - a for a, b in zip(times, times[1:])]


class TestIdleHeartbeat:
    """A quiescent leader whose last round reached every member renews
    once per lease_duration − heartbeat_interval."""

    def test_idle_group_sends_one_round_per_lease(self):
        sim, hosts = idle_cluster()
        rounds = leader_rounds(sim, hosts[0])
        sim.run_for(10.0)
        assert len(rounds) == 18  # 40 at heartbeat_interval
        assert gaps(rounds) == [pytest.approx(STRETCH)] * 17

    def test_lease_stays_live_and_no_follower_campaigns(self):
        sim, hosts = idle_cluster()
        sent = record_sends(hosts)
        ballot = hosts[0].replica.ballot
        dark = 0
        for _ in range(10_000):  # every 1 ms for 10 idle sim-s
            sim.run_for(0.001)
            dark += not hosts[0].replica.lease_active
        assert dark == 0
        assert not [m for m in sent if m[2] == "Prepare"]
        assert hosts[0].replica.ballot == ballot and current_leader(hosts) is hosts[0]

    @pytest.mark.parametrize("offset", [0.1, 0.4])  # before the checkpoint, in the stretch
    def test_slot_in_flight_restores_heartbeat_interval(self, offset):
        sim, hosts = idle_cluster()
        rounds = leader_rounds(sim, hosts[0], drop=lambda _n, _dst, kind: kind == "Accept")
        start = next_round(sim, rounds)
        sim.run_until(start + offset)
        f = hosts[0].propose(Command.app("x"))  # the peers never see it
        sim.run_for(2.0)
        assert not f.done and hosts[0].replica.lease_active
        # A slot alone does not hurry the next round: the checkpoint
        # sends it, or the stretched round already scheduled does.
        # Every round after it sees the slot pending.
        after = rounds[rounds.index(start) :]
        first = HB if offset < HB else STRETCH
        assert gaps(after) == [pytest.approx(first)] + [pytest.approx(HB)] * (len(after) - 2)

    @pytest.mark.parametrize("offset", [0.1, 0.4])
    def test_commit_goes_out_within_heartbeat_interval(self, offset):
        sim, hosts = idle_cluster()
        rounds = leader_rounds(sim, hosts[0])
        start = next_round(sim, rounds)
        sim.run_until(start + offset)
        f = hosts[0].propose(Command.app("x"))
        committed = []
        f.add_callback(lambda _f: committed.append(sim.now))
        sim.run_for(2.0)
        assert f.result() == "x"
        # Before the checkpoint, the checkpoint sends the round that
        # carries the commit; during a stretch, the commit sends it at
        # once.  The round after it is stretched again.
        after = rounds[rounds.index(start) :]
        first = max(HB, committed[0] - start)
        assert gaps(after) == [pytest.approx(first)] + [pytest.approx(STRETCH)] * (len(after) - 2)
        assert committed_payloads(hosts[1]) == committed_payloads(hosts[2]) == ["x"]

    @pytest.mark.parametrize(
        "config, lost, lost_to",
        [
            (DEFAULT, 1, ("n1", "n2")),
            (DEFAULT, 1, ("n2",)),
            (EXPERIMENT_PAXOS, 2, ("n1", "n2")),
        ],
    )
    def test_lost_rounds_fall_back_to_heartbeat_interval(self, config, lost, lost_to):
        hb = config.heartbeat_interval
        stretch = config.lease_duration - hb
        sim, hosts = idle_cluster(config)
        sent = record_sends(hosts)
        ballot = hosts[0].replica.ballot
        rounds = leader_rounds(
            sim,
            hosts[0],
            drop=lambda n, dst, kind: kind == "Heartbeat" and 1 <= n <= lost and dst in lost_to,
        )
        dark = 0
        for _ in range(5_000):  # every 1 ms for 5 idle sim-s
            sim.run_for(0.001)
            dark += not hosts[0].replica.lease_active
        # The checkpoint after a round that some member did not ack sends
        # the next one a heartbeat_interval later, until one reaches all.
        assert gaps(rounds[: lost + 3]) == [
            pytest.approx(stretch),
            *[pytest.approx(hb)] * lost,
            pytest.approx(stretch),
        ]
        # No campaign and no step-down.  The lease lapses only if every
        # follower missed a round, and then for lost − 1 intervals plus
        # the round trip of the round that gets through (5 ms each way).
        assert not [m for m in sent if m[2] == "Prepare"]
        assert hosts[0].replica.ballot == ballot and current_leader(hosts) is hosts[0]
        if len(lost_to) < 2:
            assert dark == 0
        else:
            assert 0 < dark <= round(1000 * ((lost - 1) * hb + 0.010)) + 1

    def test_follower_read_leader_keeps_heartbeat_interval(self):
        config = PaxosConfig(follower_reads=True)
        sim, hosts = idle_cluster(config)
        rounds = leader_rounds(sim, hosts[0])
        sim.run_for(10.0)
        assert len(rounds) == 40
        assert gaps(rounds) == [pytest.approx(config.heartbeat_interval)] * 39

    @pytest.mark.parametrize("offset", [0.0, 0.2, 0.4, 0.54])
    def test_killed_idle_leader_is_replaced_within_one_stretch_and_three_timeouts(self, offset):
        bound = STRETCH + 3 * DEFAULT.election_timeout
        sim, hosts = idle_cluster(seed=3)
        rounds = leader_rounds(sim, hosts[0])
        start = next_round(sim, rounds)
        sim.run_until(start + offset)  # this far into an idle gap
        hosts[0].crash()
        crashed = sim.now
        while current_leader(hosts[1:]) is None and sim.now - crashed <= bound:
            sim.run_for(0.01)
        assert current_leader(hosts[1:]) is not None
        assert sim.now - crashed <= bound
