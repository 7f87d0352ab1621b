"""The distributed storage system: routing, execution, replication.

:class:`StorageCluster` wires storage nodes, the partition map, and the
hash partitioner into the "distributed record store" of the paper's
architecture (Figure 3).  It executes the storage requests defined in
:mod:`repro.effects`:

* single-key operations run on the partition's *master* replica and, when
  they modify state, are synchronously copied to the backups before the
  request is acknowledged (in-memory storage must replicate synchronously
  to be durable, Section 4.4.2);
* scans fan out to every master holding a slice of the space;
* batches serve many keys of one space in one round trip per node.

Under the direct runner the cluster executes requests itself via
:meth:`execute`.  The simulation driver instead routes a single key the
way :meth:`routing` does (inlined) and a batch with
:meth:`group_by_master`, and at the right simulated instant runs a
single-key op (:meth:`write` for a write) or a node's keys of a batch
(:meth:`serve_batch`).
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import effects
from repro.effects import KIND_BATCH, KIND_SCAN, kind_of
from repro.errors import InvalidState, NoCapacity, NodeUnavailable
from repro.store.node import StorageNode, Written
from repro.store.partition import HashPartitioner, PartitionMap


class StorageCluster:
    """A set of storage nodes behind a partition map."""

    def __init__(
        self,
        n_nodes: int,
        replication_factor: int = 1,
        partitions_per_node: int = 8,
        capacity_bytes: Optional[int] = None,
    ):
        if n_nodes < 1:
            raise InvalidState("need at least one storage node")
        self.replication_factor = replication_factor
        # replica cell copies shipped to backups (repro.obs fan-out gauge)
        self.replication_copies = 0
        self._default_capacity = capacity_bytes
        self.nodes: Dict[int, StorageNode] = {
            node_id: StorageNode(node_id, capacity_bytes=capacity_bytes)
            for node_id in range(n_nodes)
        }
        n_partitions = n_nodes * partitions_per_node
        self.partitioner = HashPartitioner(n_partitions)
        self.partition_map = PartitionMap(
            n_partitions, list(self.nodes.keys()), replication_factor
        )
        # The backups hosted here mirror their master's dicts (see
        # :meth:`replicate`); every store hosted later holds its own.
        for partition_id in range(n_partitions):
            master_id, *backup_ids = self.partition_map.replicas_of(partition_id)
            master = self.nodes[master_id].host_partition(partition_id)
            for node_id in backup_ids:
                self.nodes[node_id].host_mirror(master)

    # -- routing -----------------------------------------------------------

    def partition_of(self, key: Any) -> int:
        return self.partitioner.partition_of(key)

    def routing(self, op: effects.StoreRequest) -> Tuple[int, int]:
        """Where a single-key request executes: ``(partition_id,
        master_node_id)``."""
        partition_id = self.partitioner.partition_of(op.key)
        return (partition_id,
                self.partition_map.assignments[partition_id].replicas[0])

    def group_by_master(
        self, keys: List[Any]
    ) -> Tuple[List[int], Dict[int, List[int]]]:
        """Route a batch's keys: ``(pids, groups)``, where ``pids[p]`` is
        key ``p``'s partition and ``groups`` maps each master node, in
        order of first use, to the positions of the keys it serves."""
        assignments = self.partition_map.assignments
        pids = self.partitioner.partitions_of(keys)
        groups: Dict[int, List[int]] = {}
        for position, partition_id in enumerate(pids):
            node_id = assignments[partition_id].replicas[0]
            group = groups.get(node_id)
            if group is None:
                groups[node_id] = [position]
            else:
                group.append(position)
        return pids, groups

    def scan_routing(self, op: effects.Scan) -> List[Tuple[int, int]]:
        """(partition_id, master_node_id) pairs a scan must visit."""
        return [
            (pid, self.partition_map.master_of(pid))
            for pid in range(self.partitioner.n_partitions)
        ]

    # -- execution -----------------------------------------------------------

    def execute(self, op: effects.Request) -> Any:
        """Execute a request synchronously (direct mode).

        Classification is the shared :func:`repro.effects.kind_of`; a
        batch resolves per :class:`~repro.effects.Batch`'s result
        contract.
        """
        kind = kind_of(op)
        if kind == KIND_BATCH:
            keys = op.keys
            results: List[Any] = [None] * len(keys)
            versions: List[int] = [0] * len(keys)
            pids, groups = self.group_by_master(keys)
            for node_id, positions in groups.items():
                self.serve_batch(self.nodes[node_id], op, pids, positions,
                                 results, versions)
            return results, versions
        if kind == KIND_SCAN:
            return self.execute_scan(op)
        partition_id, node_id = self.routing(op)
        if not op.is_write:
            return op.apply(self.nodes[node_id], partition_id)
        return self.write(self.nodes[node_id], partition_id, op)

    def write(self, node: StorageNode, partition_id: int,
              op: effects.StoreRequest) -> Any:
        """Apply the single-key write ``op`` on ``node``, the master of
        ``partition_id``, and copy what it wrote to the backups."""
        result = op.apply(node, partition_id)
        replicas = self.partition_map.assignments[partition_id].replicas
        if len(replicas) > 1:
            self.replicate(partition_id, replicas, op.space, op.key,
                           node.last_write)
        return result

    def serve_batch(self, node: StorageNode, batch: effects.Batch,
                    pids: List[int], positions: Sequence[int],
                    results: List[Any], versions: List[int]) -> None:
        """Serve the keys of ``batch`` at ``positions`` on their master
        ``node`` in one loop, filling the result columns; each written
        cell is copied to the backups.  Both drivers serve batches here."""
        space, keys, values = batch.batch_space, batch.keys, batch.values
        if values is None:
            node.do_get_columns(space, keys, pids, positions, results,
                                versions)
            return
        expected = batch.expected
        put = node.do_put_if_version
        assignments = self.partition_map.assignments
        for position in positions:
            pid, key = pids[position], keys[position]
            results[position], versions[position] = put(
                pid, space, key, values[position],
                None if expected is None else expected[position],
            )
            replicas = assignments[pid].replicas
            if len(replicas) > 1:
                self.replicate(pid, replicas, space, key, node.last_write)

    def execute_scan(self, op: effects.Scan) -> List[Tuple[Any, Any, int]]:
        """Scan every partition and merge the sorted slices."""
        rows: List[Tuple[Any, Any, int]] = []
        for partition_id, node_id in self.scan_routing(op):
            node = self.nodes[node_id]
            if not node.alive:
                raise NodeUnavailable(f"storage node {node_id} is down")
            rows.extend(op.apply(node, partition_id))
        rows.sort(key=operator.itemgetter(0))
        if op.limit is not None:
            rows = rows[: op.limit]
        return rows

    # -- replication -----------------------------------------------------------

    def replicate(self, partition_id: int, replicas: List[int], space: str,
                  key: Any, written: Written) -> None:
        """Synchronously copy the master's write of ``key`` to every
        backup in ``replicas`` (the partition's, master first).

        Mirrors RAMCloud's behaviour: the master acknowledges a write only
        after the backups hold it.  Timing is accounted by the simulated
        fabric; here we only install the state.  ``written`` is what the
        master's write op did (:data:`~repro.store.node.Written`, its
        ``last_write``): a backup mirroring the master's store already
        holds the new cell and is only charged its ``delta``; every other
        backup is sent a copy, sized with the master's measure.  A
        refused conditional write is copied too (the master's cell,
        unchanged).  A replicated write is all or nothing: when a backup
        has no room, the master and every backup already written get the
        old cell back, and :class:`NoCapacity` propagates with no replica
        changed.
        """
        old, cell, size, delta = written
        nodes = self.nodes
        master = nodes[replicas[0]].partition(partition_id)
        index = 1
        try:
            for index in range(1, len(replicas)):
                backup = nodes[replicas[index]]
                if not backup.alive:
                    continue
                store = backup.partitions.get(partition_id)
                if store is not None and store.mirror_of is master:
                    backup.charge_mirror(store, delta)
                else:
                    backup.copy_cell(partition_id, space, key, cell, size)
                self.replication_copies += 1
        except NoCapacity:
            # The master's restored dicts are its mirrors' too.
            nodes[replicas[0]].copy_cell(partition_id, space, key, old)
            for node_id in replicas[1:index]:
                backup = nodes[node_id]
                store = backup.partitions.get(partition_id)
                if store is not None and store.mirror_of is master:
                    backup.charge_mirror(store, -delta)
                elif backup.alive:
                    backup.copy_cell(partition_id, space, key, old)
            raise

    # -- introspection -----------------------------------------------------------

    def live_nodes(self) -> List[int]:
        return [node_id for node_id, node in self.nodes.items() if node.alive]

    def total_bytes(self) -> int:
        return sum(node.bytes_used for node in self.nodes.values())

    def create_node(
        self, capacity_bytes: Optional[int] = None
    ) -> StorageNode:
        """Attach a fresh, empty storage node and register it with the
        partition map (epoch bump).  The node owns nothing until a rebalance
        assigns it partitions -- :class:`repro.elastic.migration.StorageOps`
        pairs this with a rebalance, for both
        :class:`repro.api.admin.ClusterAdmin` and
        :class:`repro.elastic.coordinator.ElasticCoordinator`."""
        node_id = max(self.nodes.keys()) + 1 if self.nodes else 0
        node = StorageNode(
            node_id,
            capacity_bytes=(
                capacity_bytes if capacity_bytes is not None
                else self._default_capacity
            ),
        )
        self.nodes[node_id] = node
        self.partition_map.add_node(node_id)
        return node

    def detach_node(self, node_id: int) -> StorageNode:
        """Remove a drained node from the cluster (it must host nothing)."""
        node = self.nodes.get(node_id)
        if node is None:
            raise InvalidState(f"no storage node {node_id}")
        if node.partitions:
            raise InvalidState(
                f"storage node {node_id} still hosts "
                f"{len(node.partitions)} partition(s); drain first"
            )
        if node_id in self.partition_map.node_ids:
            self.partition_map.remove_node(node_id)
        return self.nodes.pop(node_id)

