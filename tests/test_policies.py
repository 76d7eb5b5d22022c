"""Unit tests for ScatterPolicy decisions."""

import random
from collections import Counter

import pytest

from repro.dht.ring import KEY_SPACE, KeyRange
from repro.group.info import GroupInfo
from repro.policies import ScatterPolicy
from repro.policies.policy import _load_median


def info(gid, lo, hi, members):
    return GroupInfo(gid=gid, range=KeyRange(lo, hi), members=tuple(members), leader_hint=members[0])


class FakeGroup:
    """Just enough of GroupReplica for policy decisions."""

    def __init__(self, members, lo=0, hi=1000, load=None, leader="n0"):
        self.members = list(members)
        self.range = KeyRange(lo, hi)
        self.load = Counter(load or {})

        class P:
            replica_id = leader

        self.paxos = P()


class TestValidation:
    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            ScatterPolicy(split_size=3, merge_size=3)

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            ScatterPolicy(join_mode="nearest")
        with pytest.raises(ValueError):
            ScatterPolicy(split_key_mode="random")
        with pytest.raises(ValueError):
            ScatterPolicy(leader_mode="alphabetical")


class TestJoinPlacement:
    CANDIDATES = [
        info("small", 0, 100, ["a", "b"]),
        info("big", 100, 300, ["c", "d", "e", "f"]),
        info("wide", 300, 0, ["g", "h", "i"]),
    ]

    def test_smallest_group(self):
        policy = ScatterPolicy(join_mode="smallest_group")
        assert policy.choose_join_target(self.CANDIDATES, random.Random(0)).gid == "small"

    def test_largest_range(self):
        policy = ScatterPolicy(join_mode="largest_range")
        assert policy.choose_join_target(self.CANDIDATES, random.Random(0)).gid == "wide"

    def test_random_covers_all(self):
        policy = ScatterPolicy(join_mode="random")
        rng = random.Random(1)
        chosen = {policy.choose_join_target(self.CANDIDATES, rng).gid for _ in range(50)}
        assert chosen == {"small", "big", "wide"}

    def test_empty_candidates(self):
        assert ScatterPolicy().choose_join_target([], random.Random(0)) is None


class TestSizing:
    def test_split_and_merge_thresholds(self):
        policy = ScatterPolicy(target_size=5, split_size=9, merge_size=3)
        assert policy.wants_split(FakeGroup(members=list("abcdefghi")))
        assert not policy.wants_split(FakeGroup(members=list("abcde")))
        assert policy.wants_merge(FakeGroup(members=list("abc")))
        assert not policy.wants_merge(FakeGroup(members=list("abcd")))

    def test_partition_members_covers_all(self):
        policy = ScatterPolicy()
        members = [f"n{i}" for i in range(7)]
        left, right = policy.partition_members(members, random.Random(2))
        assert sorted(left + right) == sorted(members)
        assert abs(len(left) - len(right)) <= 1
        assert not set(left) & set(right)


class TestSplitKey:
    def test_midpoint_mode(self):
        policy = ScatterPolicy(split_key_mode="midpoint")
        g = FakeGroup(members=["a"], lo=100, hi=300, load={150: 100})
        assert policy.choose_split_key(g) == 200

    def test_load_median_balances_load(self):
        policy = ScatterPolicy(split_key_mode="load_median")
        # All load near the start: the median key sits early in the range.
        g = FakeGroup(members=["a"], lo=0, hi=1000, load={10: 50, 20: 50, 900: 2})
        key = policy.choose_split_key(g)
        assert key in (10, 20)

    def test_load_median_falls_back_without_signal(self):
        policy = ScatterPolicy(split_key_mode="load_median")
        g = FakeGroup(members=["a"], lo=0, hi=1000, load={5: 3})  # under threshold
        assert policy.choose_split_key(g) == 500

    def test_load_median_handles_wraparound(self):
        g = FakeGroup(members=["a"], lo=KEY_SPACE - 100, hi=100,
                      load={KEY_SPACE - 50: 30, 50: 30})
        key = _load_median(g)
        assert key is not None
        assert g.range.contains(key)

    def test_load_median_rejects_boundary_candidate(self):
        g = FakeGroup(members=["a"], lo=0, hi=1000, load={0: 100})
        assert _load_median(g) is None


class TestLeaderPlacement:
    def test_static_mode_never_moves(self):
        policy = ScatterPolicy(leader_mode="static")
        g = FakeGroup(members=["n0", "n1", "n2"])
        assert policy.choose_leader(g, lambda a, b: 1.0) is None

    def test_latency_mode_picks_quorum_optimum(self):
        policy = ScatterPolicy(leader_mode="latency")
        # n2 has two immediate neighbors at 1ms; n0 (current) is remote.
        lat = {
            ("n0", "n1"): 0.05, ("n0", "n2"): 0.05, ("n0", "n3"): 0.05, ("n0", "n4"): 0.05,
            ("n2", "n1"): 0.001, ("n2", "n3"): 0.001, ("n2", "n4"): 0.05, ("n2", "n0"): 0.05,
            ("n1", "n2"): 0.001, ("n1", "n3"): 0.03, ("n1", "n4"): 0.05, ("n1", "n0"): 0.05,
            ("n3", "n2"): 0.001, ("n3", "n1"): 0.03, ("n3", "n4"): 0.05, ("n3", "n0"): 0.05,
            ("n4", "n1"): 0.05, ("n4", "n2"): 0.05, ("n4", "n3"): 0.05, ("n4", "n0"): 0.05,
        }
        g = FakeGroup(members=["n0", "n1", "n2", "n3", "n4"], leader="n0")
        best = policy.choose_leader(g, lambda a, b: lat[(a, b)])
        assert best == "n2"

    def test_no_move_when_improvement_marginal(self):
        policy = ScatterPolicy(leader_mode="latency")
        g = FakeGroup(members=["n0", "n1", "n2"], leader="n0")
        # n1 is only 2% better than n0: stay put.
        lat = {
            ("n0", "n1"): 0.100, ("n0", "n2"): 0.100,
            ("n1", "n0"): 0.098, ("n1", "n2"): 0.098,
            ("n2", "n0"): 0.150, ("n2", "n1"): 0.150,
        }
        assert policy.choose_leader(g, lambda a, b: lat[(a, b)]) is None

    def test_single_member_group(self):
        policy = ScatterPolicy(leader_mode="latency")
        assert policy.choose_leader(FakeGroup(members=["n0"]), lambda a, b: 1.0) is None


class TestRepairDonor:
    def test_largest_donor_above_the_floor_gives_its_first_spare(self):
        policy = ScatterPolicy(target_size=3, split_size=7, merge_size=1, repair=True)
        fragile = FakeGroup(members=["a", "b"])
        fragile.gid = "g0"
        known = [
            info("g0", 0, 10, ["a", "b"]),
            info("g1", 10, 20, ["c", "d", "e"]),  # at the floor: nothing to give
            info("g2", 20, 30, ["h", "g", "f", "i"]),
        ]
        node, donor = policy.choose_repair_donor(fragile, known)
        assert (node, donor.gid) == ("f", "g2")

    def test_view_listing_one_of_ours_is_stale_by_that_member(self):
        # "b" was pulled in from g2; the pointer to g2 still lists it.
        # Three of g2's four listed members are really there, which is
        # the floor, so g2 has no spare and must not be asked again.
        policy = ScatterPolicy(target_size=3, split_size=7, merge_size=1, repair=True)
        fragile = FakeGroup(members=["a", "b"])
        fragile.gid = "g0"
        stale = info("g2", 20, 30, ["b", "f", "g", "h"])
        assert policy.choose_repair_donor(fragile, [stale]) is None
