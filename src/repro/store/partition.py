"""Partitioning of the key space across storage nodes.

The store splits every space's key population into a fixed number of
partitions.  Each partition has one *master* replica (all requests go to
the master, as in RAMCloud) and ``replication_factor - 1`` backups on
distinct nodes.  The :class:`PartitionMap` is owned by the management node;
processing nodes look partition locations up there and then talk to the
master directly (the paper's "lookup service").

Partition assignment uses a deterministic hash so that runs are
reproducible regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import InvalidState, NodeUnavailable

_FNV_PRIME = 1099511628211
_FNV_OFFSET = 14695981039346656037
_MASK = (1 << 64) - 1


def stable_hash(key: Any) -> int:
    """Deterministic 64-bit hash for keys (ints, strings, nested tuples).

    Routing hashes every key of every request, so the common exact types
    (int, tuple-of-scalars, str) are dispatched on ``__class__`` before
    the general isinstance ladder.  Both paths compute identical hashes.
    """
    cls = key.__class__
    if cls is int:
        return (key * 0x9E3779B97F4A7C15) & _MASK
    if cls is tuple:
        acc = _FNV_OFFSET
        for part in key:
            pcls = part.__class__
            if pcls is int:
                part_hash = (part * 0x9E3779B97F4A7C15) & _MASK
            elif pcls is str:
                part_hash = (
                    zlib.crc32(part.encode("utf-8")) * 0x9E3779B97F4A7C15 & _MASK
                )
            else:
                part_hash = stable_hash(part)
            acc = (acc ^ part_hash) * _FNV_PRIME & _MASK
        return acc
    if cls is str:
        return zlib.crc32(key.encode("utf-8")) * 0x9E3779B97F4A7C15 & _MASK
    if isinstance(key, bool):
        return 1 if key else 2
    if isinstance(key, int):
        return (key * 0x9E3779B97F4A7C15) & _MASK
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8")) * 0x9E3779B97F4A7C15 & _MASK
    if isinstance(key, bytes):
        return zlib.crc32(key) * 0x9E3779B97F4A7C15 & _MASK
    if isinstance(key, tuple):
        acc = _FNV_OFFSET
        for part in key:
            acc = (acc ^ stable_hash(part)) * _FNV_PRIME & _MASK
        return acc
    if key is None:
        return 3
    raise TypeError(f"unhashable key type for partitioning: {type(key)!r}")


class HashPartitioner:
    """Maps keys to partition ids by deterministic hash."""

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise InvalidState("need at least one partition")
        self.n_partitions = n_partitions

    def partition_of(self, key: Any) -> int:
        return stable_hash(key) % self.n_partitions


class PartitionAssignment:
    """Replica placement of a single partition: master first."""

    __slots__ = ("partition_id", "replicas")

    def __init__(self, partition_id: int, replicas: List[int]):
        self.partition_id = partition_id
        self.replicas = replicas  # node ids; replicas[0] is the master

    @property
    def master(self) -> int:
        return self.replicas[0]

    @property
    def backups(self) -> List[int]:
        return self.replicas[1:]


class PartitionMap:
    """Replica placement for every partition.

    Placement is round-robin with offset backups, giving every node an
    equal share of masters and backups -- the balanced layout a management
    node maintains in the background.
    """

    def __init__(
        self,
        n_partitions: int,
        node_ids: Sequence[int],
        replication_factor: int = 1,
    ):
        if replication_factor < 1:
            raise InvalidState("replication factor must be >= 1")
        if replication_factor > len(node_ids):
            raise InvalidState(
                f"replication factor {replication_factor} exceeds "
                f"node count {len(node_ids)}"
            )
        self.n_partitions = n_partitions
        self.replication_factor = replication_factor
        self.node_ids = list(node_ids)
        self.assignments: Dict[int, PartitionAssignment] = {}
        n_nodes = len(self.node_ids)
        for pid in range(n_partitions):
            replicas = [
                self.node_ids[(pid + offset) % n_nodes]
                for offset in range(replication_factor)
            ]
            self.assignments[pid] = PartitionAssignment(pid, replicas)

    def master_of(self, partition_id: int) -> int:
        return self.assignments[partition_id].master

    def backups_of(self, partition_id: int) -> List[int]:
        return self.assignments[partition_id].backups

    def replicas_of(self, partition_id: int) -> List[int]:
        return list(self.assignments[partition_id].replicas)

    def partitions_mastered_by(self, node_id: int) -> List[int]:
        return [
            pid
            for pid, assignment in self.assignments.items()
            if assignment.master == node_id
        ]

    def partitions_hosted_by(self, node_id: int) -> List[int]:
        return [
            pid
            for pid, assignment in self.assignments.items()
            if node_id in assignment.replicas
        ]

    def fail_over(self, dead_node_id: int, live_node_ids: Sequence[int]) -> List[int]:
        """Remove ``dead_node_id`` from every assignment, promoting the
        first surviving backup to master.

        Returns the partition ids whose replica set shrank below the
        replication factor (the management node re-replicates those).
        Raises :class:`NodeUnavailable` if some partition loses its last
        replica -- with in-memory storage that is unrecoverable data loss.
        """
        degraded: List[int] = []
        for pid, assignment in self.assignments.items():
            if dead_node_id not in assignment.replicas:
                continue
            assignment.replicas = [
                node for node in assignment.replicas if node != dead_node_id
            ]
            if not assignment.replicas:
                raise NodeUnavailable(
                    f"partition {pid} lost its last replica (node {dead_node_id})"
                )
            degraded.append(pid)
        if dead_node_id in self.node_ids:
            self.node_ids.remove(dead_node_id)
        return degraded

    def add_replica(self, partition_id: int, node_id: int) -> None:
        assignment = self.assignments[partition_id]
        if node_id in assignment.replicas:
            raise InvalidState(
                f"node {node_id} already hosts partition {partition_id}"
            )
        assignment.replicas.append(node_id)

    def pick_new_host(
        self, partition_id: int, candidates: Sequence[int]
    ) -> Optional[int]:
        """Choose the least-loaded candidate not already hosting the
        partition (load = partitions hosted)."""
        current = set(self.assignments[partition_id].replicas)
        eligible = [node for node in candidates if node not in current]
        if not eligible:
            return None
        load = {node: 0 for node in eligible}
        for assignment in self.assignments.values():
            for node in assignment.replicas:
                if node in load:
                    load[node] += 1
        return min(eligible, key=lambda node: (load[node], node))
