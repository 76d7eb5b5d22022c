"""Builder and harness-side view of a Scatter deployment."""

from __future__ import annotations

from repro.dht.ring import KEY_SPACE, KeyRange
from repro.dht.scatter import ScatterConfig, ScatterNode
from repro.group.info import GroupGenesis, GroupInfo
from repro.group.replica import GroupReplica, GroupStatus
from repro.policies import ScatterPolicy
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork


class ScatterSystem:
    """Builds and observes a simulated Scatter deployment.

    ``build`` pre-partitions the ring into ``n_groups`` groups of
    roughly equal membership — the steady state a long-running
    deployment converges to — so experiments need not replay the whole
    join history.  Nodes added later go through the real join protocol.
    """

    def __init__(
        self,
        sim: Simulator,
        net: SimNetwork,
        config: ScatterConfig | None = None,
        policy: ScatterPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.config = config or ScatterConfig()
        self.policy = policy or ScatterPolicy()
        self.nodes: dict[str, ScatterNode] = {}
        self._node_counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        sim: Simulator,
        net: SimNetwork,
        n_nodes: int,
        n_groups: int,
        config: ScatterConfig | None = None,
        policy: ScatterPolicy | None = None,
    ) -> "ScatterSystem":
        if n_groups < 1 or n_nodes < n_groups:
            raise ValueError("need at least one node per group")
        system = ScatterSystem(sim, net, config, policy)
        names = [system._new_node_name() for _ in range(n_nodes)]
        for name in names:
            system.nodes[name] = ScatterNode(
                name, sim, net, config=system.config, policy=system.policy
            )

        # Contiguous arcs of equal size; members dealt out in blocks.
        arcs: list[KeyRange] = []
        for i in range(n_groups):
            lo = (i * KEY_SPACE) // n_groups
            hi = ((i + 1) * KEY_SPACE) // n_groups
            arcs.append(KeyRange(lo % KEY_SPACE, hi % KEY_SPACE))
        member_blocks: list[list[str]] = [[] for _ in range(n_groups)]
        for i, name in enumerate(names):
            member_blocks[i % n_groups].append(name)

        infos = []
        for i in range(n_groups):
            members = tuple(sorted(member_blocks[i]))
            infos.append(
                GroupInfo(gid=f"g{i}", range=arcs[i], members=members, leader_hint=members[0])
            )
        for i in range(n_groups):
            members = infos[i].members
            pred = infos[(i - 1) % n_groups] if n_groups > 1 else None
            succ = infos[(i + 1) % n_groups] if n_groups > 1 else None
            genesis = GroupGenesis(
                gid=infos[i].gid,
                range=arcs[i],
                members=members,
                initial_leader=members[0],
                predecessor=pred,
                successor=succ,
            )
            for member in members:
                system.nodes[member].create_group(genesis)
        for node in system.nodes.values():
            node.start()
        return system

    def _new_node_name(self) -> str:
        name = f"s{self._node_counter}"
        self._node_counter += 1
        return name

    # ------------------------------------------------------------------
    # Runtime membership (churn hooks)
    # ------------------------------------------------------------------
    def add_node(self, seed: str | None = None) -> ScatterNode:
        """Create a node and start its join through ``seed``."""
        name = self._new_node_name()
        node = ScatterNode(name, self.sim, self.net, config=self.config, policy=self.policy)
        self.nodes[name] = node
        node.start()
        if seed is None:
            seed = self._pick_seed(exclude=name)
        if seed is not None:
            node.start_join(seed)
        return node

    def _pick_seed(self, exclude: str) -> str | None:
        alive = [n for n in self.alive_node_ids() if n != exclude]
        if not alive:
            return None
        return self.sim.rng("seeds").choice(alive)

    def kill_node(self, node_id: str) -> None:
        """Permanent fail-stop departure (churn)."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.shutdown()

    def alive_node_ids(self) -> list[str]:
        return sorted(
            name
            for name, node in self.nodes.items()
            if node.alive and any(
                g.status is not GroupStatus.RETIRED and not g.paxos.retired
                for g in node.groups.values()
            )
        )

    # ------------------------------------------------------------------
    # Observation (harness-side; not part of the protocol)
    # ------------------------------------------------------------------
    def active_groups(self) -> dict[str, GroupReplica]:
        """One live replica per active group id (leader's if available)."""
        out: dict[str, GroupReplica] = {}
        for node in self.nodes.values():
            if not node.alive:
                continue
            for gid, replica in node.groups.items():
                if replica.status is GroupStatus.RETIRED or replica.paxos.retired:
                    continue
                current = out.get(gid)
                if current is None or (replica.is_leader and not current.is_leader):
                    out[gid] = replica
        return out

    def leader_of(self, gid: str) -> GroupReplica | None:
        for node in self.nodes.values():
            if not node.alive:
                continue
            replica = node.groups.get(gid)
            if replica is not None and replica.is_leader:
                return replica
        return None

    def group_count(self) -> int:
        return len(self.active_groups())

    def ring_is_consistent(self) -> bool:
        """Do the active groups partition the whole ring exactly?

        Harness invariant check: collects each active group's own view of
        its range and verifies the arcs tile the key space.
        """
        groups = self.active_groups()
        if not groups:
            return False
        arcs = sorted((g.range.lo, g.range.hi) for g in groups.values())
        if len(arcs) == 1:
            return groups[next(iter(groups))].range.is_full
        total = 0
        for i, (lo, hi) in enumerate(arcs):
            nxt_lo = arcs[(i + 1) % len(arcs)][0]
            if hi != nxt_lo:
                return False
            total += KeyRange(lo, hi).size()
        return total == KEY_SPACE

    def total_keys(self) -> int:
        return sum(len(g.store) for g in self.active_groups().values())

    def audit(self) -> list[str]:
        """Invariant audit; returns human-readable problems (empty = clean).

        Checks, over the live system state:

        1. active groups partition the ring (no gap, no overlap);
        2. adjacency pointers agree with the partition (each group's
           successor pointer names the group that actually starts at its
           upper boundary);
        3. every member of an active group hosts a live replica of it;
        4. no group is frozen without an active transaction.
        """
        problems: list[str] = []
        groups = self.active_groups()
        if not groups:
            return ["no active groups"]
        if not self.ring_is_consistent():
            problems.append("active group ranges do not partition the ring")
        by_lo = {g.range.lo: g for g in groups.values()}
        for gid, g in sorted(groups.items()):
            expected_succ = by_lo.get(g.range.hi % KEY_SPACE)
            if g.successor is not None and expected_succ is not None:
                if g.successor.gid != expected_succ.gid:
                    problems.append(
                        f"{gid}: successor pointer {g.successor.gid} but "
                        f"{expected_succ.gid} starts at its boundary"
                    )
            for member in g.members:
                node = self.nodes.get(member)
                if node is None or not node.alive:
                    continue  # dead member: failure detection's job
                replica = node.groups.get(gid)
                if replica is None:
                    problems.append(f"{gid}: member {member} hosts no replica")
            if g.status is GroupStatus.FROZEN and g.active_txn is None:
                problems.append(f"{gid}: frozen without an active transaction")
        return problems
