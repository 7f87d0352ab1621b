"""Versioned topology: the ownership layer behind live elasticity.

:class:`Topology` wraps the cluster's partitioner and
:class:`~repro.store.partition.PartitionMap` behind a *versioned* surface:
every ownership change (node join/leave, handoff begin/finish/abort,
fail-over, replica restore) advances a monotonically increasing **epoch**
and is recorded in ``epoch_log`` -- which is what makes migration
schedules auditable and fixed-seed deterministic.

Encapsulation contract (enforced by lint rule RL013): the attributes
``epoch``, ``epoch_log``, and ``_handoffs`` may only be *written* inside
the ``repro.elastic`` package.  Everything else in the tree -- the
management node, the fabric, the admin API -- mutates ownership through
the methods here, never by poking the partition map's epoch state
directly.  Reads are free (observability gauges report the epoch).

The static placement path is untouched by construction: a Topology is
built around the *same* partitioner / partition-map objects the cluster
already owns, so deployments that never call an elastic operation run
byte-identically to the pre-elasticity tree (the perf-guard digest pins
this down).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidState, NodeUnavailable
from repro.store.partition import PartitionMap

class Handoff:
    """One in-flight partition handoff: ``dst`` takes over ``src``'s slot.

    While the handoff runs, ``dst`` rides the partition's replica list as
    an extra backup, so every new write reaches it through the ordinary
    synchronous-replication path; the migration coroutine only has to
    stream the *existing* cells.
    """

    __slots__ = ("partition_id", "src", "dst", "started_epoch")

    def __init__(self, partition_id: int, src: int, dst: int,
                 started_epoch: int):
        self.partition_id = partition_id
        self.src = src
        self.dst = dst
        self.started_epoch = started_epoch

    def __repr__(self) -> str:
        return (f"Handoff(p{self.partition_id} {self.src}->{self.dst} "
                f"@e{self.started_epoch})")


class Move:
    """A planned handoff: partition ``pid``'s ``src`` slot moves to ``dst``."""

    __slots__ = ("partition_id", "src", "dst")

    def __init__(self, partition_id: int, src: int, dst: int):
        self.partition_id = partition_id
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:
        return f"Move(p{self.partition_id} {self.src}->{self.dst})"


class Topology:
    """Versioned ownership map over a partitioner + partition map."""

    def __init__(self, partitioner: Any, partition_map: PartitionMap):
        self.partitioner = partitioner
        self.partition_map = partition_map
        self.epoch = 1
        self.epoch_log: List[Tuple[int, str]] = [(1, "initial")]
        self._handoffs: Dict[int, Handoff] = {}

    # -- read surface -------------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return self.partitioner.n_partitions

    def node_ids(self) -> List[int]:
        return list(self.partition_map.node_ids)

    def owner_of(self, partition_id: int) -> int:
        return self.partition_map.assignments[partition_id].replicas[0]

    def ownership(self) -> Dict[int, Tuple[int, ...]]:
        """Immutable snapshot: partition id -> replica tuple (master first)."""
        return {
            pid: tuple(assignment.replicas)
            for pid, assignment in sorted(
                self.partition_map.assignments.items()
            )
        }

    def migrations_in_flight(self) -> List[Handoff]:
        return [self._handoffs[pid] for pid in sorted(self._handoffs)]

    def handoff_active(self, handoff: Handoff) -> bool:
        """True while this exact handoff is still registered (a fail-over
        may abort it out from under the migration coroutine)."""
        return self._handoffs.get(handoff.partition_id) is handoff

    def master_counts(self) -> Dict[int, int]:
        counts = {node_id: 0 for node_id in self.partition_map.node_ids}
        for assignment in self.partition_map.assignments.values():
            master = assignment.replicas[0]
            if master in counts:
                counts[master] += 1
        return counts

    def is_balanced(self) -> bool:
        """Master counts within one of each other and nothing in flight."""
        if self._handoffs:
            return False
        counts = self.master_counts()
        if not counts:
            return True
        return max(counts.values()) - min(counts.values()) <= 1

    # -- epoch bookkeeping ---------------------------------------------------

    def _bump(self, reason: str) -> int:
        self.epoch += 1
        self.epoch_log.append((self.epoch, reason))
        return self.epoch

    # -- membership ----------------------------------------------------------

    def add_node(self, node_id: int) -> int:
        """Register a joined (empty) storage node; returns the new epoch."""
        if node_id in self.partition_map.node_ids:
            raise InvalidState(f"node {node_id} is already a member")
        self.partition_map.node_ids.append(node_id)
        return self._bump(f"add-node:{node_id}")

    def remove_node(self, node_id: int) -> int:
        """Deregister a drained node (it must host no replicas)."""
        hosted = self.partition_map.partitions_hosted_by(node_id)
        if hosted:
            raise InvalidState(
                f"node {node_id} still hosts {len(hosted)} partition(s); "
                f"drain before removal"
            )
        if node_id not in self.partition_map.node_ids:
            raise InvalidState(f"node {node_id} is not a member")
        self.partition_map.node_ids.remove(node_id)
        return self._bump(f"remove-node:{node_id}")

    # -- handoffs -------------------------------------------------------------

    def begin_handoff(self, partition_id: int, src: int, dst: int) -> Handoff:
        """Start moving ``src``'s replica slot of ``partition_id`` to ``dst``.

        ``dst`` joins the replica list as an extra backup immediately, so
        new writes replicate to it while existing cells stream over.
        """
        if partition_id in self._handoffs:
            raise InvalidState(
                f"partition {partition_id} already has a handoff in flight"
            )
        replicas = self.partition_map.assignments[partition_id].replicas
        if src not in replicas:
            raise InvalidState(
                f"node {src} does not hold a replica of partition "
                f"{partition_id}"
            )
        if dst in replicas:
            raise InvalidState(
                f"node {dst} already holds a replica of partition "
                f"{partition_id}"
            )
        self.partition_map.add_replica(partition_id, dst)
        handoff = Handoff(partition_id, src, dst, self.epoch)
        self._handoffs[partition_id] = handoff
        self._bump(f"handoff-begin:p{partition_id}:{src}->{dst}")
        return handoff

    def finish_handoff(self, handoff: Handoff) -> int:
        """Atomically promote ``dst`` into ``src``'s slot and drop ``src``.

        If ``src`` was the master, ``dst`` becomes the master in the same
        epoch step -- there is never an instant without an owner.
        """
        if not self.handoff_active(handoff):
            raise InvalidState(f"{handoff!r} is no longer active")
        replicas = self.partition_map.assignments[handoff.partition_id].replicas
        replicas.remove(handoff.dst)          # the temporary backup entry
        index = replicas.index(handoff.src)
        replicas[index] = handoff.dst
        del self._handoffs[handoff.partition_id]
        return self._bump(
            f"handoff-finish:p{handoff.partition_id}:"
            f"{handoff.src}->{handoff.dst}"
        )

    def abort_handoff(self, handoff: Handoff) -> int:
        """Roll a handoff back: ``dst`` leaves the replica list; ``src``
        keeps its slot.  Idempotent against a fail-over that already
        evicted ``dst``."""
        if self._handoffs.get(handoff.partition_id) is handoff:
            del self._handoffs[handoff.partition_id]
        replicas = self.partition_map.assignments[handoff.partition_id].replicas
        if handoff.dst in replicas and handoff.src in replicas:
            replicas.remove(handoff.dst)
        return self._bump(
            f"handoff-abort:p{handoff.partition_id}:"
            f"{handoff.src}->{handoff.dst}"
        )

    # -- failure handling ------------------------------------------------------

    def fail_over(self, dead_node_id: int,
                  live_node_ids: Sequence[int]) -> List[int]:
        """Epoch-bumping fail-over (the management node's entry point).

        Handoffs touching the dead node abort first: a half-copied
        destination must never be promoted to master by the generic
        fail-over path.  Returns the degraded partition ids, exactly like
        :meth:`PartitionMap.fail_over`.
        """
        for handoff in list(self._handoffs.values()):
            if dead_node_id in (handoff.src, handoff.dst):
                self.abort_handoff(handoff)
        degraded = self.partition_map.fail_over(dead_node_id, live_node_ids)
        self._bump(f"fail-over:{dead_node_id}")
        return degraded

    def add_replica(self, partition_id: int, node_id: int) -> int:
        """Epoch-bumping replica registration (RF restoration path)."""
        self.partition_map.add_replica(partition_id, node_id)
        return self._bump(f"add-replica:p{partition_id}:{node_id}")

    # -- rebalance planning -----------------------------------------------------

    def plan_rebalance(self) -> List[Move]:
        """Deterministic master-balancing plan.

        Nodes are processed in sorted id order; surplus nodes donate
        their highest-numbered mastered partitions to deficit nodes.  A
        donation is skipped when the target already holds a replica of
        that partition (moving it there would collapse the replica set);
        repeated rebalance rounds converge regardless.
        """
        nodes = sorted(self.partition_map.node_ids)
        if not nodes:
            return []
        mastered: Dict[int, List[int]] = {node_id: [] for node_id in nodes}
        for pid, assignment in sorted(self.partition_map.assignments.items()):
            if pid in self._handoffs:
                continue  # already moving; replanning it would collide
            master = assignment.replicas[0]
            if master in mastered:
                mastered[master].append(pid)
        total = sum(len(pids) for pids in mastered.values())
        base, remainder = divmod(total, len(nodes))
        desired = {
            node_id: base + (1 if index < remainder else 0)
            for index, node_id in enumerate(nodes)
        }
        deficits = [
            node_id for node_id in nodes
            if len(mastered[node_id]) < desired[node_id]
        ]
        moves: List[Move] = []
        for src in nodes:
            surplus = mastered[src][desired[src]:]
            for pid in reversed(surplus):
                dst = self._pick_target(pid, deficits, mastered, desired)
                if dst is None:
                    continue
                moves.append(Move(pid, src, dst))
                mastered[dst].append(pid)
                if len(mastered[dst]) >= desired[dst]:
                    deficits.remove(dst)
        return moves

    def _pick_target(self, partition_id: int, deficits: List[int],
                     mastered: Dict[int, List[int]],
                     desired: Dict[int, int]) -> Optional[int]:
        replicas = self.partition_map.assignments[partition_id].replicas
        for node_id in deficits:
            if node_id not in replicas:
                return node_id
        return None

    def plan_drain(self, node_id: int) -> List[Move]:
        """Every replica slot ``node_id`` holds, mapped to a new host.

        Targets are the least-loaded (by hosted partitions) other members
        not already holding the partition, ties broken by node id --
        fully deterministic.
        """
        others = sorted(
            member for member in self.partition_map.node_ids
            if member != node_id
        )
        if not others:
            raise NodeUnavailable(
                f"node {node_id} is the last member; nothing can absorb "
                f"its partitions"
            )
        load = {member: 0 for member in others}
        for assignment in self.partition_map.assignments.values():
            for replica in assignment.replicas:
                if replica in load:
                    load[replica] += 1
        moves: List[Move] = []
        for pid in sorted(
            self.partition_map.partitions_hosted_by(node_id)
        ):
            if pid in self._handoffs:
                continue  # already moving; replanning it would collide
            replicas = self.partition_map.assignments[pid].replicas
            eligible = [m for m in others if m not in replicas]
            if not eligible:
                raise NodeUnavailable(
                    f"no eligible host for partition {pid} off node "
                    f"{node_id}"
                )
            dst = min(eligible, key=lambda member: (load[member], member))
            load[dst] += 1
            moves.append(Move(pid, node_id, dst))
        return moves

    # -- invariants -------------------------------------------------------------

    def assert_no_leaks(self, cluster: Any) -> None:
        """Post-migration leak check (the ``_backfill_index`` lesson).

        After any migration -- committed *or aborted* -- the topology
        must hold no residual handoff state, every node must host exactly
        the partitions the map assigns it (modulo moved-out tombstones),
        and no replica list may reference an unknown or dead node.
        Raises :class:`InvalidState` on the first violation.
        """
        if self._handoffs:
            raise InvalidState(
                f"leaked handoff state: {self.migrations_in_flight()!r}"
            )
        members = set(self.partition_map.node_ids)
        hosted_by_map: Dict[int, set] = {}
        for pid, assignment in sorted(self.partition_map.assignments.items()):
            seen = set()
            for replica in assignment.replicas:
                if replica in seen:
                    raise InvalidState(
                        f"partition {pid} lists node {replica} twice"
                    )
                seen.add(replica)
                if replica not in members:
                    raise InvalidState(
                        f"partition {pid} references non-member node "
                        f"{replica}"
                    )
                node = cluster.nodes.get(replica)
                if node is None or not node.alive:
                    raise InvalidState(
                        f"partition {pid} references dead node {replica}"
                    )
                if pid not in node.partitions:
                    raise InvalidState(
                        f"node {replica} is assigned partition {pid} but "
                        f"does not host it"
                    )
                hosted_by_map.setdefault(replica, set()).add(pid)
        for node_id in sorted(members):
            node = cluster.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            assigned = hosted_by_map.get(node_id, set())
            for pid in sorted(node.partitions):
                if pid not in assigned:
                    raise InvalidState(
                        f"node {node_id} hosts partition {pid} the map "
                        f"does not assign to it (migration residue)"
                    )

    def __repr__(self) -> str:
        return (
            f"<Topology epoch={self.epoch} nodes={len(self.partition_map.node_ids)} "
            f"partitions={self.n_partitions} "
            f"handoffs={len(self._handoffs)}>"
        )
