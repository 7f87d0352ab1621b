"""Tests for the storage substrate: nodes, LL/SC, partitioning, batches."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import effects
from repro.errors import KeyNotFound, NoCapacity, NodeUnavailable
from repro.store.cell import Cell, approx_size, request_size
from repro.elastic.migration import migrate_partition
from repro.elastic.topology import Move
from repro.store.cluster import StorageCluster
from repro.store.management import ManagementNode
from repro.store.node import StorageNode
from repro.store.partition import PartitionMap, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_spreads_keys(self):
        values = {stable_hash((1, i)) % 64 for i in range(1000)}
        assert len(values) == 64

    def test_types(self):
        for key in (1, "x", b"y", (1, "x"), None, True):
            assert isinstance(stable_hash(key), int)

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])


class TestPartitionMap:
    def test_round_robin_masters_balanced(self):
        pmap = PartitionMap(12, [0, 1, 2], replication_factor=1)
        counts = {n: len(pmap.partitions_mastered_by(n)) for n in (0, 1, 2)}
        assert set(counts.values()) == {4}

    def test_replicas_distinct_nodes(self):
        pmap = PartitionMap(9, [0, 1, 2], replication_factor=3)
        for pid in range(9):
            replicas = pmap.replicas_of(pid)
            assert len(set(replicas)) == 3

    def test_rf_exceeding_nodes_rejected(self):
        from repro.errors import InvalidState

        with pytest.raises(InvalidState):
            PartitionMap(4, [0, 1], replication_factor=3)

    def test_fail_over_promotes_backup(self):
        pmap = PartitionMap(6, [0, 1, 2], replication_factor=2)
        mastered = pmap.partitions_mastered_by(0)
        degraded = pmap.fail_over(0)
        for pid in mastered:
            assert pmap.master_of(pid) != 0
        assert set(degraded) >= set(mastered)

    def test_fail_over_last_replica_raises(self):
        pmap = PartitionMap(2, [0, 1], replication_factor=1)
        victim = pmap.master_of(0)
        with pytest.raises(NodeUnavailable):
            pmap.fail_over(victim)

    def test_pick_new_host_avoids_current(self):
        pmap = PartitionMap(3, [0, 1, 2], replication_factor=2)
        current = set(pmap.replicas_of(0))
        choice = pmap.pick_new_host(0, [0, 1, 2])
        assert choice not in current


class TestStorageNode:
    def test_put_get_roundtrip(self):
        node = StorageNode(0)
        node.host_partition(0)
        version = node.do_put(0, "data", "k", "v")
        assert version == 1
        value, cell_version = node.do_get(0, "data", "k")
        assert value == "v" and cell_version == 1

    def test_get_missing(self):
        node = StorageNode(0)
        node.host_partition(0)
        value, version = node.do_get(0, "data", "nope")
        assert value is None and version == 0

    def test_version_increments_every_write(self):
        node = StorageNode(0)
        node.host_partition(0)
        for expected in (1, 2, 3):
            version = node.do_put(0, "data", "k", f"v{expected}")
            assert version == expected

    def test_ll_sc_success_and_failure(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "v1")
        ok, version = node.do_put_if_version(0, "data", "k", "v2", 1)
        assert ok and version == 2
        ok, current = node.do_put_if_version(0, "data", "k", "v3", 1)
        assert not ok and current == 2

    def test_ll_sc_aba_immunity(self):
        """A value changed and changed back still fails the conditional
        write -- the property CAS lacks and LL/SC provides."""
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "A")          # version 1
        node.do_put(0, "data", "k", "B")          # version 2
        node.do_put(0, "data", "k", "A")          # version 3, value back to A
        ok, current = node.do_put_if_version(0, "data", "k", "C", 1)
        assert not ok and current == 3

    def test_ll_sc_insert_expects_zero(self):
        node = StorageNode(0)
        node.host_partition(0)
        ok, version = node.do_put_if_version(0, "data", "new", "v", 0)
        assert ok and version == 1
        ok, _ = node.do_put_if_version(0, "data", "new", "v2", 0)
        assert not ok

    def test_delete(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "v")
        deleted = node.do_delete(0, "data", "k")
        assert deleted
        deleted = node.do_delete(0, "data", "k")
        assert not deleted

    def test_delete_if_version(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "v")
        ok, _ = node.do_delete_if_version(0, "data", "k", 99)
        assert not ok
        ok, _ = node.do_delete_if_version(0, "data", "k", 1)
        assert ok

    def test_increment(self):
        node = StorageNode(0)
        node.host_partition(0)
        value = node.do_increment(0, "meta", "counter", 5)
        assert value == 5
        value = node.do_increment(0, "meta", "counter", 3)
        assert value == 8

    def test_scan_sorted_with_bounds_and_limit(self):
        node = StorageNode(0)
        node.host_partition(0)
        for key in (5, 1, 9, 3, 7):
            node.do_put(0, "data", key, f"v{key}")
        rows = node.do_scan(0, "data", 3, 9, None)
        assert [key for key, _v, _c in rows] == [3, 5, 7]
        rows = node.do_scan(0, "data", None, None, 2)
        assert [key for key, _v, _c in rows] == [1, 3]

    def test_scan_cache_invalidation_on_write(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", 1, "a")
        node.do_scan(0, "data", None, None, None)
        node.do_put(0, "data", 2, "b")
        rows = node.do_scan(0, "data", None, None, None)
        assert len(rows) == 2

    def test_capacity_limit(self):
        node = StorageNode(0, capacity_bytes=64)
        node.host_partition(0)
        with pytest.raises(NoCapacity):
            node.do_put(0, "data", "k", "x" * 1000)

    def test_memory_accounting_on_delete(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "x" * 100)
        used = node.bytes_used
        assert used > 100
        node.do_delete(0, "data", "k")
        assert node.bytes_used == 0

    def test_crash_drops_data(self):
        node = StorageNode(0)
        node.host_partition(0)
        node.do_put(0, "data", "k", "v")
        node.crash()
        assert not node.alive
        with pytest.raises(NodeUnavailable):
            node.do_get(0, "data", "k")

    def test_unknown_partition(self):
        node = StorageNode(0)
        with pytest.raises(KeyNotFound):
            node.do_get(42, "data", "k")

    def test_installed_partition_forgets_its_moved_out_tombstone(self):
        # Released at epoch 5, restored by fail-over, dropped again: the
        # node never hosted-and-migrated it since, so it is simply absent.
        source = StorageNode(1)
        source.host_partition(7)
        node = StorageNode(0)
        node.host_partition(7)
        node.release_partition(7, 5)
        node.install_partition(source.snapshot_partition(7))
        node.drop_partition(7)
        with pytest.raises(KeyNotFound):
            node.partition(7)

    def test_replica_copy_over_capacity_changes_nothing(self):
        backup = StorageNode(0, capacity_bytes=40)
        backup.copy_cell(0, "data", "k", Cell("x" * 10, 3))
        used = backup.bytes_used
        with pytest.raises(NoCapacity):
            backup.copy_cell(0, "data", "k", Cell("x" * 100, 4))
        cell = backup.partition(0).space("data")["k"]
        assert (cell.value, cell.version) == ("x" * 10, 3)
        assert backup.bytes_used == used == backup.partition(0).bytes_used

    def test_replica_update_in_place_keeps_scan_cache_and_accounting(self):
        backup = StorageNode(0)
        for key in (1, 2, 3):
            backup.copy_cell(0, "data", key, Cell("v", 1))
        cached = backup.partition(0).sorted_keys("data")
        backup.copy_cell(0, "data", 2, Cell("longer value", 2))
        assert backup.partition(0).sorted_keys("data") is cached
        backup.copy_cell(0, "data", 3, None)
        assert backup.partition(0).sorted_keys("data") == [1, 2]
        fresh = StorageNode(1)
        fresh.copy_cell(0, "data", 1, Cell("v", 1))
        fresh.copy_cell(0, "data", 2, Cell("longer value", 2))
        assert backup.bytes_used == fresh.bytes_used
        assert backup.do_get(0, "data", 2) == ("longer value", 2)


class TestStorageCluster:
    def test_execute_put_get(self, cluster):
        cluster.execute(effects.Put("data", "k", "v"))
        assert cluster.execute(effects.Get("data", "k")) == ("v", 1)

    def test_full_backup_keeps_its_old_cell(self):
        # A write is all or nothing: a backup without room for the new
        # value keeps the old one and its bytes, and so does every
        # replica written before it.
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        cluster.execute(effects.Put("data", "k", "short"))
        pid = cluster.partition_of("k")
        replicas = cluster.partition_map.replicas_of(pid)
        full = cluster.nodes[replicas[-1]]
        full.capacity_bytes = full.bytes_used
        with pytest.raises(NoCapacity):
            cluster.execute(effects.Put("data", "k", "a much longer value"))

        def held(node_id):
            cell = cluster.nodes[node_id].partition(pid).space("data")["k"]
            return cell.value, cell.version

        assert [held(node_id) for node_id in replicas] == [("short", 1)] * 3
        assert {cluster.nodes[node_id].bytes_used for node_id in replicas} \
            == {approx_size("short") + approx_size("k")}

    def test_batch_preserves_order(self, cluster):
        for i in range(10):
            cluster.execute(effects.Put("data", i, f"v{i}"))
        values, versions = cluster.execute(
            effects.multi_get("data", list(range(10))))
        assert values == [f"v{i}" for i in range(10)]
        assert versions == [1] * 10

    def test_scan_across_partitions(self, cluster):
        for i in range(50):
            cluster.execute(effects.Put("data", i, i * 10))
        rows = cluster.execute(effects.Scan("data", 10, 20))
        assert [key for key, _v, _c in rows] == list(range(10, 20))

    def test_keys_spread_over_nodes(self, cluster):
        for i in range(200):
            cluster.execute(effects.Put("data", i, "v"))
        used = [node.bytes_used for node in cluster.nodes.values()]
        assert all(bytes_used > 0 for bytes_used in used)

    def test_replication_copies_to_backups(self, replicated_cluster):
        cluster = replicated_cluster
        cluster.execute(effects.Put("data", "k", "value"))
        pid = cluster.partition_of("k")
        for node_id in cluster.partition_map.replicas_of(pid):
            cells = cluster.nodes[node_id].partition(pid).space("data")
            assert cells["k"].value == "value"
            assert cells["k"].version == 1

    def test_replication_of_deletes(self, replicated_cluster):
        cluster = replicated_cluster
        cluster.execute(effects.Put("data", "k", "value"))
        cluster.execute(effects.Delete("data", "k"))
        pid = cluster.partition_of("k")
        for node_id in cluster.partition_map.replicas_of(pid):
            cells = cluster.nodes[node_id].partition(pid).space("data")
            assert "k" not in cells

    def test_failed_conditional_write_not_replicated(self, replicated_cluster):
        cluster = replicated_cluster
        cluster.execute(effects.Put("data", "k", "v1"))
        ok, _ = cluster.execute(effects.PutIfVersion("data", "k", "v2", 99))
        assert not ok
        pid = cluster.partition_of("k")
        for node_id in cluster.partition_map.replicas_of(pid):
            cells = cluster.nodes[node_id].partition(pid).space("data")
            assert cells["k"].value == "v1"

    def test_add_node_for_elasticity(self, cluster):
        before = len(cluster.nodes)
        node = cluster.create_node()
        assert len(cluster.nodes) == before + 1
        assert node.alive

    def test_request_size_reflects_value(self):
        small = request_size(effects.Put("data", "k", "x"))
        large = request_size(effects.Put("data", "k", "x" * 500))
        assert large > small + 400

    def test_request_size_of_batches_and_keyless_requests(self):
        get = effects.Get("data", "k")
        assert request_size(effects.multi_get("data", ["k", "k"])) == (
            2 * request_size(get)
        )
        puts = [effects.Put("data", "k", "v"),
                effects.PutIfVersion("data", "kk", "x" * 40, 3)]
        assert request_size(effects.multi_put(
            "data", ["k", "kk"], ["v", "x" * 40], [0, 3]
        )) == sum(request_size(put) for put in puts)
        assert request_size(effects.StartTransaction()) == 24


class TestApproxSize:
    @given(st.text(max_size=100))
    def test_strings(self, text):
        assert approx_size(text) == len(text)

    def test_nested(self):
        assert approx_size((1, "abc", None)) == 8 + 8 + 3 + 1

    def test_custom_protocol(self):
        class Sized:
            def approx_size(self):
                return 1234

        assert approx_size(Sized()) == 1234

    def test_unknown_fallback(self):
        assert approx_size(object()) == 64


def assert_replicas_hold_their_master(cluster):
    """Every live replica of every partition holds its master's key ->
    ``Cell`` mapping (compared as dicts: a migrated copy is in stream
    order), and every store and node is charged exactly the cells it
    holds (true while no cell was created by ``Increment``)."""

    def held(store):
        return {name: cells for name, cells in store.spaces.items() if cells}

    for pid in range(cluster.partitioner.n_partitions):
        replicas = cluster.partition_map.replicas_of(pid)
        master = cluster.nodes[replicas[0]].partition(pid)
        for node_id in replicas:
            node = cluster.nodes[node_id]
            if not node.alive:
                continue
            assert held(node.partition(pid)) == held(master), (node_id, pid)
    for node in cluster.nodes.values():
        for store in node.partitions.values():
            assert store.bytes_used == sum(
                approx_size(key) + approx_size(cell.value)
                for cells in store.spaces.values()
                for key, cell in cells.items()
            ), (node.node_id, store.partition_id)
        assert node.bytes_used == sum(
            store.bytes_used for store in node.partitions.values())


def _keys_of(cluster, pid, count, start=0):
    return [key for key in range(start, start + 1000)
            if cluster.partition_of(key) == pid][:count]


def _drive(steps):
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


class TestBackupStopsMirroring:
    """A backup hosted with the cluster binds its master's dicts until it
    must differ; every way it stops must leave the state a per-key copy
    to each backup would."""

    def test_cluster_backups_mirror_and_later_stores_do_not(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        master_id, *backup_ids = cluster.partition_map.replicas_of(0)
        master = cluster.nodes[master_id].partition(0)
        assert master.mirror_of is None
        for node_id in backup_ids:
            store = cluster.nodes[node_id].partition(0)
            assert store.mirror_of is master
            assert store.spaces is master.spaces
        assert StorageNode(9).host_partition(0).mirror_of is None
        rf1 = StorageCluster(n_nodes=3)
        assert all(store.mirror_of is None
                   for node in rf1.nodes.values()
                   for store in node.partitions.values())

    def test_promoted_backup_mirrors_until_its_first_write(self):
        cluster = StorageCluster(n_nodes=4, replication_factor=3,
                                 partitions_per_node=1)
        cluster.execute(effects.Put("data", 0, "v"))
        pid = cluster.partition_of(0)
        ManagementNode(cluster).handle_node_failure(
            cluster.partition_map.master_of(pid))
        promoted = cluster.nodes[cluster.partition_map.master_of(pid)]
        store = promoted.partition(pid)
        assert cluster.execute(effects.Get("data", 0)) == ("v", 1)
        assert [key for key, _v, _c in cluster.execute(
            effects.Scan("data", None, None))] == [0]
        assert store.mirror_of is not None  # reads never copy
        cluster.execute(effects.Put("data", 0, "w"))
        assert store.mirror_of is None
        assert_replicas_hold_their_master(cluster)

    def test_full_last_backup_stops_the_batch_at_its_key(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        pid = cluster.partition_of(0)
        keys = _keys_of(cluster, pid, 5)
        cluster.execute(effects.Put("data", keys[2], "short"))
        replicas = cluster.partition_map.replicas_of(pid)
        full = cluster.nodes[replicas[-1]]
        full.capacity_bytes = full.bytes_used + sum(
            approx_size(key) + approx_size("v") for key in keys[:2])
        with pytest.raises(NoCapacity):
            cluster.execute(effects.multi_put(
                "data", keys, ["v", "v", "a much longer value", "v", "v"]))

        def held(node_id):
            cells = cluster.nodes[node_id].partition(pid).spaces["data"]
            return [cells[key].value if key in cells else None
                    for key in keys]

        assert [held(node_id) for node_id in replicas] == [
            ["v", "v", "short", None, None]] * 3
        assert_replicas_hold_their_master(cluster)
        master = cluster.nodes[replicas[0]].partition(pid)
        assert full.partition(pid).mirror_of is master

    def test_full_first_backup_leaves_every_replica_unwritten(self):
        # The refused write is on no replica: the master takes its old
        # cell back, and the backup after the full one never gets it.
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        pid = cluster.partition_of(0)
        grown, inserted = _keys_of(cluster, pid, 2)
        cluster.execute(effects.Put("data", grown, "short"))
        replicas = cluster.partition_map.replicas_of(pid)
        full = cluster.nodes[replicas[1]]
        full.capacity_bytes = full.bytes_used
        with pytest.raises(NoCapacity):
            cluster.execute(effects.Put("data", grown, "a much longer value"))
        with pytest.raises(NoCapacity):
            cluster.execute(effects.Put("data", inserted, "v"))
        values = [
            [cluster.nodes[node_id].do_get(pid, "data", key)
             for key in (grown, inserted)]
            for node_id in replicas
        ]
        assert values == [[("short", 1), (None, 0)]] * 3
        assert [key for key, _v, _version in cluster.execute(
            effects.Scan("data", None, None))] == [grown]
        assert_replicas_hold_their_master(cluster)

    def test_failed_over_master_writes_and_deletes(self):
        cluster = StorageCluster(n_nodes=4, replication_factor=3,
                                 partitions_per_node=2)
        for key in range(60):
            cluster.execute(effects.Put("data", key, f"v{key}"))
        pid = cluster.partition_of(0)
        dead = cluster.partition_map.master_of(pid)
        ManagementNode(cluster).handle_node_failure(dead)
        replicas = cluster.partition_map.replicas_of(pid)
        assert len(replicas) == 3 and dead not in replicas
        assert_replicas_hold_their_master(cluster)
        old_key, gone_key = _keys_of(cluster, pid, 2)
        new_key = _keys_of(cluster, pid, 1, start=1000)[0]
        cluster.execute(effects.Put("data", new_key, "inserted"))
        cluster.execute(effects.Put("data", old_key, "a longer value"))
        cluster.execute(effects.Delete("data", gone_key))
        assert_replicas_hold_their_master(cluster)
        assert cluster.execute(effects.Get("data", gone_key)) == (None, 0)

    def test_moved_master_inserts_replaces_and_deletes(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        for key in range(30):
            cluster.execute(effects.Put("data", key, f"v{key}"))
        pid = cluster.partition_of(0)
        src = cluster.partition_map.master_of(pid)
        dst = cluster.create_node().node_id
        assert _drive(migrate_partition(cluster, Move(pid, src, dst),
                                        batch_cells=4))
        assert cluster.partition_map.master_of(pid) == dst
        assert_replicas_hold_their_master(cluster)
        old_key, gone_key = _keys_of(cluster, pid, 2)
        new_key = _keys_of(cluster, pid, 1, start=1000)[0]
        cluster.execute(effects.Put("data", new_key, "inserted"))
        cluster.execute(effects.Put("data", old_key, "a longer value"))
        cluster.execute(effects.Delete("data", gone_key))
        assert_replicas_hold_their_master(cluster)
