"""Tests for the bulk loader, the effect vocabulary, and table printing."""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.record import VersionedRecord
from repro.core.spaces import (DATA_SPACE, INDEX_SPACE, META_SPACE, data_key,
                               rid_counter_key)
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.index.btree import BTreeNode
from repro.obs.exporters import format_table
from repro.sql.keyenc import encode_key
from repro.sql.schema import Catalog, Column
from repro.sql.table import IndexManager, Table
from repro.sql.types import ColumnType
from repro.store.cluster import StorageCluster
from repro.workloads.loader import BulkLoader
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale


@pytest.fixture
def env():
    cluster = StorageCluster(n_nodes=2)
    catalog = Catalog()
    catalog.define_table(
        "users",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("name", ColumnType.TEXT),
            Column("age", ColumnType.INT),
        ],
        ["id"],
    )
    catalog.define_index("users_age", "users", ["age"])
    indexes = IndexManager()
    loader = BulkLoader(catalog, indexes, batch_size=16)
    return cluster, catalog, indexes, loader


def load(cluster, loader, rows):
    schema = loader.catalog.table("users")
    payloads = [schema.make_row(row) for row in rows]
    return effects.run_direct(loader.load_table("users", payloads), Dispatcher(cluster))


class TestBulkLoader:
    def test_rows_visible_to_transactions(self, env):
        cluster, catalog, indexes, loader = env
        count = load(cluster, loader, [
            {"id": i, "name": f"user-{i}", "age": i % 40} for i in range(100)
        ])
        assert count == 100
        cm = CommitManager(0, cluster.execute)
        pn = ProcessingNode(0)
        dispatcher = Dispatcher(cluster, cm, pn_id=0)
        txn = run_direct(pn.begin(), dispatcher)
        table = Table(catalog.table("users"), txn, indexes)
        found = run_direct(table.get((42,)), dispatcher)
        assert found is not None and found[1][1] == "user-42"

    def test_secondary_index_built(self, env):
        cluster, catalog, indexes, loader = env
        load(cluster, loader, [
            {"id": i, "name": "x", "age": 30 if i < 5 else 50}
            for i in range(20)
        ])
        cm = CommitManager(0, cluster.execute)
        pn = ProcessingNode(0)
        dispatcher = Dispatcher(cluster, cm, pn_id=0)
        txn = run_direct(pn.begin(), dispatcher)
        table = Table(catalog.table("users"), txn, indexes)
        index = catalog.indexes["users_age"]
        matches = run_direct(table.lookup(index, (30,)), dispatcher)
        assert len(matches) == 5

    def test_rid_counter_advanced(self, env):
        cluster, catalog, indexes, loader = env
        load(cluster, loader, [{"id": i, "name": "x"} for i in range(7)])
        value, _ = cluster.execute(
            effects.Get(META_SPACE, rid_counter_key(catalog.table("users").table_id))
        )
        assert value == 7
        # new inserts get fresh rids beyond the loaded population
        cm = CommitManager(0, cluster.execute)
        pn = ProcessingNode(0)
        dispatcher = Dispatcher(cluster, cm, pn_id=0)
        txn = run_direct(pn.begin(), dispatcher)
        table = Table(catalog.table("users"), txn, indexes)
        rid = run_direct(table.insert({"id": 100, "name": "new"}), dispatcher)
        assert rid > 7

    def test_loaded_versions_visible_to_every_snapshot(self, env):
        cluster, catalog, indexes, loader = env
        load(cluster, loader, [{"id": 1, "name": "x"}])
        from repro.core.spaces import DATA_SPACE, data_key

        record, _ = cluster.execute(
            effects.Get(DATA_SPACE, data_key(catalog.table("users").table_id, 1))
        )
        assert record.versions[0].tid == 0  # version 0: visible to all

    def test_empty_table_load(self, env):
        cluster, catalog, indexes, loader = env
        assert load(cluster, loader, []) == 0


def test_load_shares_replica_cells_and_tids():
    # Counted, not measured as RSS: every backup binds its master's cell,
    # and one table's loaded records share one tids tuple.
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, replication_factor=3,
        scale=TpccScale.tiny(2), seed=3,
    ))
    deployment.load()
    master_of = deployment.cluster.partition_map.master_of
    installed = 0
    masters = 0
    cells = set()
    tids_by_table = {}
    for node_id, node in deployment.cluster.nodes.items():
        for partition_id, store in node.partitions.items():
            for space, space_cells in store.spaces.items():
                installed += len(space_cells)
                if master_of(partition_id) == node_id:
                    masters += len(space_cells)
                cells.update(map(id, space_cells.values()))
                if space != DATA_SPACE:
                    continue
                for key, cell in space_cells.items():
                    assert isinstance(cell.value, VersionedRecord)
                    tids_by_table.setdefault(key[0], set()).add(
                        id(cell.value.tids))
    assert installed == 3 * masters
    assert len(cells) == masters
    assert len(tids_by_table) > 1
    assert all(len(ids) == 1 for ids in tids_by_table.values())



def test_loaded_index_entries_are_flat_tuples_ending_in_their_rid():
    # One tuple per index entry: the encoded key's (rank, value) slots,
    # then the rid of the loaded row that carries the key; no entry
    # wraps its key in a tuple of its own.
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, replication_factor=1,
        scale=TpccScale.tiny(2), seed=3,
    ))
    deployment.load()
    catalog = deployment.catalog
    records = {}
    leaves = []
    for node in deployment.cluster.nodes.values():
        for store in node.partitions.values():
            records.update(
                (key, cell.value)
                for key, cell in store.spaces.get(DATA_SPACE, {}).items())
            leaves.extend(
                (key[0], cell.value)
                for key, cell in store.spaces.get(INDEX_SPACE, {}).items()
                if isinstance(cell.value, BTreeNode) and cell.value.is_leaf)
    indexes = {index.index_id: index for index in catalog.indexes.values()}
    entries = 0
    for index_id, leaf in leaves:
        index = indexes[index_id]
        schema = catalog.table(index.table_name)
        for entry in leaf.entries:
            assert entry.__class__ is tuple and len(entry) % 2 == 1
            assert not any(part.__class__ is tuple for part in entry)
            rid = entry[-1]
            row = records[data_key(schema.table_id, rid)].payloads[0]
            assert encode_key(schema.index_key_of(index, row)) + (rid,) == entry
            entries += 1
    assert entries == sum(
        sum(1 for key in records if key[0] == catalog.table(index.table_name)
            .table_id)
        for index in catalog.indexes.values())


class TestEffects:
    def test_multi_get_builds_batch(self):
        batch = effects.multi_get("data", [1, 2, 3])
        assert isinstance(batch, effects.Batch)
        assert batch.batch_space == "data" and batch.keys == [1, 2, 3]
        assert batch.values is None and batch.expected is None

    def test_scan_bounds(self):
        scan = effects.Scan("data", 1, 10, limit=5)
        assert scan.start == 1 and scan.end == 10 and scan.limit == 5

    def test_run_direct_returns_value(self, cluster):
        def proto():
            yield effects.Put("data", "k", "v")
            value, _version = yield effects.Get("data", "k")
            return value

        assert effects.run_direct(proto(), Dispatcher(cluster)) == "v"

    def test_router_rejects_unknown(self, cluster):
        dispatcher = Dispatcher(cluster)
        with pytest.raises(TypeError):
            dispatcher.execute("not a request")

    def test_router_without_cm_rejects_cm_requests(self, cluster):
        dispatcher = Dispatcher(cluster)
        with pytest.raises(RuntimeError):
            dispatcher.execute(effects.StartTransaction())

    def test_compute_and_sleep_are_noops_in_direct_mode(self, cluster):
        dispatcher = Dispatcher(cluster)
        assert dispatcher.execute(effects.Compute(100.0)) is None
        assert dispatcher.execute(effects.Sleep(100.0)) is None


class TestTablePrinter:
    def test_alignment_and_formatting(self):
        text = format_table(
            ["Name", "Value"],
            [("x", 1234567.0), ("longer-name", 0.5)],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "1,234,567" in text
        assert "0.50" in text
        # header separator matches widths
        assert set(lines[2]) <= {"-", " "}

    def test_empty_rows(self):
        text = format_table(["A"], [])
        assert "A" in text
