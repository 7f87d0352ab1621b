"""Management node: storage fail-over.

The paper (Section 4.4) assigns the management node three jobs for the
storage layer: detect failures, fail partitions over to their replicas,
and restore the replication level afterwards.  Detection is not
modelled: whatever kills a storage node (a simulator callback such as
``sim.call_at(t, lambda: management.handle_node_failure(n))``, a hard
removal, a test) calls :meth:`ManagementNode.handle_node_failure`
directly.  Only one
recovery process runs at a time, but a single recovery handles any
number of simultaneous node failures.
"""

from __future__ import annotations

from typing import List

from repro.errors import InvalidState
from repro.store.cluster import StorageCluster


class ManagementNode:
    """Repairs the storage cluster after node failures."""

    def __init__(self, cluster: StorageCluster):
        self.cluster = cluster
        self.recovery_running = False
        self.recoveries_completed = 0

    def handle_node_failure(self, node_id: int) -> List[int]:
        """Fail over every partition the dead node hosted.

        Masters move to a surviving backup; afterwards the replication
        factor is restored by copying each degraded partition from a
        surviving replica to a fresh host.  Returns the list of degraded
        partition ids (useful for assertions in tests).
        """
        if self.recovery_running:
            raise InvalidState("a recovery process is already running")
        self.recovery_running = True
        try:
            node = self.cluster.nodes.get(node_id)
            if node is not None and node.alive:
                node.crash()
            degraded = self.cluster.partition_map.fail_over(node_id)
            self._restore_replication(degraded)
            self.recoveries_completed += 1
            return degraded
        finally:
            self.recovery_running = False

    def _restore_replication(self, degraded_partitions: List[int]) -> None:
        pmap = self.cluster.partition_map
        live = self.cluster.live_nodes()
        for partition_id in degraded_partitions:
            while len(pmap.replicas_of(partition_id)) < self.cluster.replication_factor:
                new_host_id = pmap.pick_new_host(partition_id, live)
                if new_host_id is None:
                    # Not enough live nodes to restore RF; stay degraded.
                    break
                source_id = pmap.master_of(partition_id)
                source = self.cluster.nodes[source_id]
                clone = source.snapshot_partition(partition_id)
                self.cluster.nodes[new_host_id].install_partition(clone)
                pmap.add_replica(partition_id, new_host_id)
