"""Partitioning of the key space across storage nodes, and who owns what.

The store splits every space's key population into a fixed number of
partitions.  Each partition has one *master* replica (all requests go to
the master, as in RAMCloud) and ``replication_factor - 1`` backups on
distinct nodes.  The :class:`PartitionMap` is owned by the management node;
processing nodes look partition locations up there and then talk to the
master directly (the paper's "lookup service").

The map is *versioned*: every ownership change (node join/leave, handoff
begin/finish/abort, fail-over, replica restore) is one method here, and
each advances a monotonically increasing **epoch** recorded in
``epoch_log`` -- which is what makes migration schedules auditable and
fixed-seed deterministic.  ``epoch``, ``epoch_log`` and ``_handoffs`` are
written in this module only; reads are free.  The tier-1 test
``tests/test_elastic.py::TestLiveElasticity::test_fixed_seed_reproduces_migration_schedule``
keeps it that way: an epoch bumped elsewhere changes the schedule it pins.
A deployment that never changes shape stays at epoch 1.

Partition assignment uses a deterministic hash so that runs are
reproducible regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

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


class PartitionMap:
    """Versioned replica placement for every partition.

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
        self.epoch = 1
        self.epoch_log: List[Tuple[int, str]] = [(1, "initial")]
        self._handoffs: Dict[int, Handoff] = {}

    # -- read surface -------------------------------------------------------

    def master_of(self, partition_id: int) -> int:
        return self.assignments[partition_id].master

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

    def ownership(self) -> Dict[int, Tuple[int, ...]]:
        """Immutable snapshot: partition id -> replica tuple (master first)."""
        return {
            pid: tuple(assignment.replicas)
            for pid, assignment in sorted(self.assignments.items())
        }

    def migrations_in_flight(self) -> List[Handoff]:
        return [self._handoffs[pid] for pid in sorted(self._handoffs)]

    def handoff_active(self, handoff: Handoff) -> bool:
        """True while this exact handoff is still registered (a fail-over
        may abort it out from under the migration coroutine)."""
        return self._handoffs.get(handoff.partition_id) is handoff

    def master_counts(self) -> Dict[int, int]:
        counts = {node_id: 0 for node_id in self.node_ids}
        for assignment in self.assignments.values():
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

    def hosted_counts(self, node_ids: Sequence[int]) -> Dict[int, int]:
        """Partitions hosted (as master or backup) by each of ``node_ids``."""
        load = {node_id: 0 for node_id in node_ids}
        for assignment in self.assignments.values():
            for node_id in assignment.replicas:
                if node_id in load:
                    load[node_id] += 1
        return load

    def least_loaded_host(
        self, partition_id: int, load: Dict[int, int]
    ) -> Optional[int]:
        """The node of ``load`` not already hosting the partition with the
        smallest load, ties broken by node id; ``None`` if all host it."""
        replicas = self.assignments[partition_id].replicas
        eligible = [node_id for node_id in load if node_id not in replicas]
        if not eligible:
            return None
        return min(eligible, key=lambda node_id: (load[node_id], node_id))

    def pick_new_host(
        self, partition_id: int, candidates: Sequence[int]
    ) -> Optional[int]:
        """Choose the least-loaded candidate not already hosting the
        partition (load = partitions hosted)."""
        return self.least_loaded_host(
            partition_id, self.hosted_counts(candidates)
        )

    # -- epoch bookkeeping ---------------------------------------------------

    def _bump(self, reason: str) -> int:
        self.epoch += 1
        self.epoch_log.append((self.epoch, reason))
        return self.epoch

    # -- membership ----------------------------------------------------------

    def add_node(self, node_id: int) -> int:
        """Register a joined (empty) storage node; returns the new epoch."""
        if node_id in self.node_ids:
            raise InvalidState(f"node {node_id} is already a member")
        self.node_ids.append(node_id)
        return self._bump(f"add-node:{node_id}")

    def remove_node(self, node_id: int) -> int:
        """Deregister a drained node (it must host no replicas)."""
        hosted = self.partitions_hosted_by(node_id)
        if hosted:
            raise InvalidState(
                f"node {node_id} still hosts {len(hosted)} partition(s); "
                f"drain before removal"
            )
        if node_id not in self.node_ids:
            raise InvalidState(f"node {node_id} is not a member")
        self.node_ids.remove(node_id)
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
        replicas = self.assignments[partition_id].replicas
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
        replicas.append(dst)
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
        replicas = self.assignments[handoff.partition_id].replicas
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
        replicas = self.assignments[handoff.partition_id].replicas
        if handoff.dst in replicas and handoff.src in replicas:
            replicas.remove(handoff.dst)
        return self._bump(
            f"handoff-abort:p{handoff.partition_id}:"
            f"{handoff.src}->{handoff.dst}"
        )

    # -- failure handling ------------------------------------------------------

    def fail_over(self, dead_node_id: int) -> List[int]:
        """Remove ``dead_node_id`` from every assignment, promoting the
        first surviving backup to master, in one epoch step.

        Handoffs touching the dead node abort first: a half-copied
        destination must never be promoted to master.  Returns the
        partition ids whose replica set shrank below the replication
        factor (the management node re-replicates those).  Raises
        :class:`NodeUnavailable` if some partition loses its last replica
        -- with in-memory storage that is unrecoverable data loss.
        """
        for handoff in list(self._handoffs.values()):
            if dead_node_id in (handoff.src, handoff.dst):
                self.abort_handoff(handoff)
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
        self._bump(f"fail-over:{dead_node_id}")
        return degraded

    def add_replica(self, partition_id: int, node_id: int) -> int:
        """Register ``node_id`` as a further backup (RF restoration path)."""
        assignment = self.assignments[partition_id]
        if node_id in assignment.replicas:
            raise InvalidState(
                f"node {node_id} already hosts partition {partition_id}"
            )
        assignment.replicas.append(node_id)
        return self._bump(f"add-replica:p{partition_id}:{node_id}")
