"""Management node: failure detection and storage fail-over.

The paper (Section 4.4) assigns the management node three jobs for the
storage layer: detect failures (an eventually-perfect, timeout-based
detector), fail partitions over to their replicas, and restore the
replication level afterwards.  Only one recovery process runs at a time,
but a single recovery handles any number of simultaneous node failures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import InvalidState
from repro.store.cluster import StorageCluster


class FailureDetector:
    """Timeout-based eventually-perfect failure detector.

    Nodes are expected to heartbeat every ``heartbeat_us``; a node whose
    last heartbeat is older than ``timeout_us`` is suspected.  Under the
    direct runner, tests call :meth:`heartbeat`/:meth:`suspects`
    explicitly; under simulation a background process does.
    """

    def __init__(self, timeout_us: float = 500_000.0):
        self.timeout_us = timeout_us
        self.last_heartbeat: Dict[int, float] = {}

    def heartbeat(self, node_id: int, now: float) -> None:
        self.last_heartbeat[node_id] = now

    def forget(self, node_id: int) -> None:
        self.last_heartbeat.pop(node_id, None)

    def suspects(self, now: float) -> List[int]:
        return [
            node_id
            for node_id, seen in self.last_heartbeat.items()
            if now - seen > self.timeout_us
        ]


class ManagementNode:
    """Monitors the storage cluster and repairs it after node failures."""

    def __init__(self, cluster: StorageCluster):
        self.cluster = cluster
        self.detector = FailureDetector()
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
            self.detector.forget(node_id)
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

    def check_heartbeats(self, now: float) -> List[int]:
        """Run the detector; fail over every suspected node.  Returns the
        node ids that were recovered."""
        recovered = []
        for node_id in self.detector.suspects(now):
            self.handle_node_failure(node_id)
            recovered.append(node_id)
        return recovered
