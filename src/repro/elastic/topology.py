"""Rebalance and drain planning over the store's versioned ownership map.

Ownership itself -- replica lists, the epoch, the in-flight handoff table
-- lives in :class:`repro.store.partition.PartitionMap`, the one map the
management node keeps.  What is elastic stays here: :class:`Move` and the
two deterministic planners that turn a map into a list of moves, plus the
post-migration leak oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.errors import InvalidState, NodeUnavailable
from repro.store.partition import PartitionMap


class Move:
    """A planned handoff: partition ``pid``'s ``src`` slot moves to ``dst``."""

    __slots__ = ("partition_id", "src", "dst")

    def __init__(self, partition_id: int, src: int, dst: int):
        self.partition_id = partition_id
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:
        return f"Move(p{self.partition_id} {self.src}->{self.dst})"


def _moving(pmap: PartitionMap) -> Set[int]:
    """Partitions with a handoff in flight: replanning one would collide."""
    return {handoff.partition_id for handoff in pmap.migrations_in_flight()}


def plan_rebalance(pmap: PartitionMap) -> List[Move]:
    """Deterministic master-balancing plan.

    Nodes are processed in sorted id order; surplus nodes donate
    their highest-numbered mastered partitions to deficit nodes.  A
    donation is skipped when the target already holds a replica of
    that partition (moving it there would collapse the replica set);
    repeated rebalance rounds converge regardless.
    """
    nodes = sorted(pmap.node_ids)
    if not nodes:
        return []
    moving = _moving(pmap)
    mastered: Dict[int, List[int]] = {node_id: [] for node_id in nodes}
    for pid, assignment in sorted(pmap.assignments.items()):
        if pid in moving:
            continue
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
            replicas = pmap.assignments[pid].replicas
            dst = next((node_id for node_id in deficits
                        if node_id not in replicas), None)
            if dst is None:
                continue
            moves.append(Move(pid, src, dst))
            mastered[dst].append(pid)
            if len(mastered[dst]) >= desired[dst]:
                deficits.remove(dst)
    return moves


def plan_drain(pmap: PartitionMap, node_id: int) -> List[Move]:
    """Every replica slot ``node_id`` holds, mapped to a new host.

    Targets are the least-loaded (by hosted partitions) other members
    not already holding the partition, ties broken by node id --
    fully deterministic.
    """
    others = sorted(
        member for member in pmap.node_ids if member != node_id
    )
    if not others:
        raise NodeUnavailable(
            f"node {node_id} is the last member; nothing can absorb "
            f"its partitions"
        )
    load = pmap.hosted_counts(others)
    moving = _moving(pmap)
    moves: List[Move] = []
    for pid in sorted(pmap.partitions_hosted_by(node_id)):
        if pid in moving:
            continue
        dst = pmap.least_loaded_host(pid, load)
        if dst is None:
            raise NodeUnavailable(
                f"no eligible host for partition {pid} off node "
                f"{node_id}"
            )
        load[dst] += 1
        moves.append(Move(pid, node_id, dst))
    return moves


def assert_no_leaks(cluster: Any) -> None:
    """Post-migration leak check (the ``_backfill_index`` lesson).

    After any migration -- committed *or aborted* -- the partition map
    must hold no residual handoff state, every node must host exactly
    the partitions the map assigns it (modulo moved-out tombstones),
    and no replica list may reference an unknown or dead node.
    Raises :class:`InvalidState` on the first violation.
    """
    pmap: PartitionMap = cluster.partition_map
    leaked = pmap.migrations_in_flight()
    if leaked:
        raise InvalidState(f"leaked handoff state: {leaked!r}")
    members = set(pmap.node_ids)
    hosted_by_map: Dict[int, set] = {}
    for pid, assignment in sorted(pmap.assignments.items()):
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
