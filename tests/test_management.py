"""Tests for the management node: storage fail-over."""

import pytest

from repro import effects
from repro.errors import NodeUnavailable
from repro.store.cluster import StorageCluster
from repro.store.management import ManagementNode


def _fill(cluster, n=200):
    for i in range(n):
        cluster.execute(effects.Put("data", i, f"value-{i}"))


class TestFailOver:
    def test_data_survives_node_failure_with_rf2(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=2)
        management = ManagementNode(cluster)
        _fill(cluster)
        management.handle_node_failure(0)
        for i in range(200):
            value, _version = cluster.execute(effects.Get("data", i))
            assert value == f"value-{i}"

    def test_replication_level_restored(self):
        cluster = StorageCluster(n_nodes=4, replication_factor=2)
        management = ManagementNode(cluster)
        _fill(cluster)
        management.handle_node_failure(1)
        for pid in range(cluster.partitioner.n_partitions):
            replicas = cluster.partition_map.replicas_of(pid)
            assert len(replicas) == 2
            assert 1 not in replicas
            # the copies must actually exist on the hosts
            for node_id in replicas:
                assert pid in cluster.nodes[node_id].partitions

    def test_replicas_byte_identical_after_restore(self):
        cluster = StorageCluster(n_nodes=4, replication_factor=3)
        management = ManagementNode(cluster)
        _fill(cluster, 100)
        management.handle_node_failure(2)
        for pid in range(cluster.partitioner.n_partitions):
            replicas = cluster.partition_map.replicas_of(pid)
            reference = None
            for node_id in replicas:
                cells = cluster.nodes[node_id].partition(pid).space("data")
                snapshot = {k: (c.value, c.version) for k, c in cells.items()}
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference

    def test_failure_without_replication_loses_data(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=1)
        management = ManagementNode(cluster)
        _fill(cluster, 50)
        with pytest.raises(NodeUnavailable):
            management.handle_node_failure(0)

    def test_writes_after_failover_replicate_to_new_host(self):
        cluster = StorageCluster(n_nodes=4, replication_factor=2)
        management = ManagementNode(cluster)
        _fill(cluster, 50)
        management.handle_node_failure(0)
        cluster.execute(effects.Put("data", "fresh", "x"))
        pid = cluster.partition_of("fresh")
        for node_id in cluster.partition_map.replicas_of(pid):
            cells = cluster.nodes[node_id].partition(pid).space("data")
            assert cells["fresh"].value == "x"

    def test_two_sequential_failures(self):
        cluster = StorageCluster(n_nodes=5, replication_factor=3)
        management = ManagementNode(cluster)
        _fill(cluster, 100)
        management.handle_node_failure(0)
        management.handle_node_failure(1)
        for i in range(100):
            value, _ = cluster.execute(effects.Get("data", i))
            assert value == f"value-{i}"
        assert management.recoveries_completed == 2

    def test_degraded_when_not_enough_nodes(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3)
        management = ManagementNode(cluster)
        _fill(cluster, 20)
        management.handle_node_failure(0)
        # Only two nodes left: RF3 cannot be restored, but data serves.
        for pid in range(cluster.partitioner.n_partitions):
            assert len(cluster.partition_map.replicas_of(pid)) == 2
        value, _ = cluster.execute(effects.Get("data", 0))
        assert value == "value-0"
