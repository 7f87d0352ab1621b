"""The write path: a columnar ``multi_put``, one-pass replica installs
and rows built without re-coercion.

:func:`repro.effects.multi_put` stands for one ``Put`` (or, with
``expected``, one ``PutIfVersion``) per key; every driver serves a
node's keys in one loop and copies each written cell to the backups,
sizing the master's value once.  These tests pin that the batch leaves
exactly what the same writes sent one by one leave -- results, cells in
per-partition order, charged bytes, op counts and replica copies --
under both drivers at RF1 and RF3; that the sanitizers read the put
columns; and that ``TableSchema.make_row``'s per-column plan builds the
rows and raises the errors ``coerce`` does.
"""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.record import VersionedRecord
from repro.core.spaces import DATA_SPACE
from repro.core.txlog import STATUS_COMMITTED, LogEntry
from repro.dispatch import Dispatcher
from repro.errors import NoCapacity, SchemaError, TransactionAborted
from repro.runtime.config import SimulationConfig
from repro.runtime.deployment import Deployment
from repro.san import make_sanitizers
from repro.sql.schema import Column, TableSchema
from repro.sql.types import ColumnType, coerce
from repro.store.cell import approx_size, request_size
from repro.store.cluster import StorageCluster
from repro.store.node import StorageNode
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import FabricRig

SPACE = "data"
#: Pre-stored before each case, so conditional puts meet versions 1..3.
SEEDED = {0: 1, 1: 2, 2: 3, 5: 1}

values_st = st.one_of(
    st.text(max_size=12),
    st.tuples(st.integers(-5, 5), st.text(max_size=6)),
)
writes_st = st.lists(
    st.tuples(st.integers(0, 9), values_st, st.integers(0, 4)),
    max_size=14,
)


def seeded_cluster(rf):
    cluster = StorageCluster(n_nodes=3, replication_factor=rf,
                             partitions_per_node=2)
    for key, times in SEEDED.items():
        for turn in range(times):
            cluster.execute(effects.Put(SPACE, key, f"seed{turn}"))
    return cluster


def singles(keys, values, expected):
    if expected is None:
        return [effects.Put(SPACE, key, value)
                for key, value in zip(keys, values)]
    return [effects.PutIfVersion(SPACE, key, value, version)
            for key, value, version in zip(keys, values, expected)]


def as_pairs(requests, results):
    """Single-key results in ``multi_put``'s ``(oks, versions)`` form."""
    oks, versions = [], []
    for request, result in zip(requests, results):
        if isinstance(request, effects.PutIfVersion):
            ok, version = result
        else:
            ok, version = True, result
        oks.append(ok)
        versions.append(version)
    return oks, versions


def run_direct(cluster, requests):
    """Each request through ``StorageCluster.execute``: (results, wire
    bytes charged)."""
    results = [cluster.execute(request) for request in requests]
    return results, sum(request_size(request) for request in requests)


def run_sim(cluster, requests):
    """Each request through a fresh fabric, one after the other:
    (results, wire bytes the fabric sent)."""
    rig = FabricRig(cluster)
    return rig.perform(*requests), rig.fabric.stats.bytes_sent


def state(cluster):
    """Everything a write leaves behind, per node."""
    nodes = {}
    for node_id, node in cluster.nodes.items():
        cells = {
            pid: {
                space: [(key, cell.version, cell.value)
                        for key, cell in stored.items()]
                for space, stored in node.partitions[pid].spaces.items()
            }
            for pid in sorted(node.partitions)
        }
        nodes[node_id] = (cells, node.bytes_used, node.ops_write)
    return nodes, cluster.replication_copies


class TestMultiPutMatchesSinglePuts:
    @pytest.mark.parametrize("rf", [1, 3], ids=["rf1", "rf3"])
    @pytest.mark.parametrize("driver", [run_direct, run_sim],
                             ids=["direct", "sim"])
    @settings(max_examples=40, deadline=None)
    @given(writes=writes_st, conditional=st.booleans())
    def test_same_results_cells_bytes_and_counts(self, driver, rf, writes,
                                                 conditional):
        keys = [key for key, _value, _version in writes]
        values = [value for _key, value, _version in writes]
        expected = ([version for _key, _value, version in writes]
                    if conditional else None)
        batched = seeded_cluster(rf)
        [columns], wire = driver(
            batched, [effects.multi_put(SPACE, keys, values, expected)]
        )
        one_by_one = seeded_cluster(rf)
        requests = singles(keys, values, expected)
        results, single_wire = driver(one_by_one, requests)
        assert columns == as_pairs(requests, results)
        assert wire == single_wire
        assert state(batched) == state(one_by_one)

    def test_duplicate_keys_and_stale_versions(self):
        keys = [0, 7, 0, 2, 7]
        values = ["a", "b", "c" * 20, "d", "e"]
        expected = [1, 0, 2, 1, 0]  # key 2 is at 3; the second 7 is stale
        for rf in (1, 3):
            cluster = seeded_cluster(rf)
            oks, versions = cluster.execute(
                effects.multi_put(SPACE, keys, values, expected)
            )
            assert oks == [True, True, True, False, False]
            assert versions == [2, 1, 3, 3, 1]

    def test_unconditional_put_counts_once_per_key(self):
        cluster = seeded_cluster(3)
        before = sum(node.ops_write for node in cluster.nodes.values())
        copies = cluster.replication_copies
        oks, versions = cluster.execute(
            effects.multi_put(SPACE, [0, 3, 3], ["x", "y", "z"])
        )
        assert oks == [True] * 3 and versions == [2, 1, 2]
        after = sum(node.ops_write for node in cluster.nodes.values())
        assert after - before == 3
        assert cluster.replication_copies - copies == 3 * 2


class TestReplicaInstall:
    def test_backups_charge_the_master_size_once_measured(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        cluster.execute(effects.Put(SPACE, "k", "short"))
        cluster.execute(effects.Put(SPACE, "k", "a much longer value"))
        expected = approx_size("a much longer value") + approx_size("k")
        assert [node.bytes_used for node in cluster.nodes.values()] == [
            expected
        ] * 3
        cluster.execute(effects.Delete(SPACE, "k"))
        assert cluster.total_bytes() == 0
        assert cluster.replication_copies == 3 * 2

    def test_dead_backup_is_skipped(self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        cluster.nodes[2].crash()
        key = next(key for key in range(100) if cluster.partition_map
                   .master_of(cluster.partition_of(key)) != 2)
        cluster.execute(effects.multi_put(SPACE, [key], ["v"]))
        assert cluster.replication_copies == 1
        assert cluster.nodes[2].bytes_used == 0

    @pytest.mark.parametrize("driver", [run_direct, run_sim],
                             ids=["direct", "sim"])
    def test_write_refused_by_a_full_replica_changes_no_replica(self, driver):
        # Node 2 holds every partition: as master it refuses first, as a
        # backup after the master (and maybe one more backup) applied.
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=2)
        keys = list(range(12))
        cluster.execute(effects.multi_put(SPACE, keys, ["v"] * len(keys)))
        full = cluster.nodes[2]
        full.capacity_bytes = full.bytes_used

        def cells_and_bytes():
            nodes, _copies = state(cluster)
            return {node_id: cells_bytes[:2]
                    for node_id, cells_bytes in nodes.items()}

        before = cells_and_bytes()
        with pytest.raises(NoCapacity):
            driver(cluster, [effects.multi_put(
                SPACE, keys, ["a longer value"] * len(keys))])
        assert cells_and_bytes() == before

    def test_transaction_refused_by_a_full_backup_commits_nothing(self):
        # Under the sim fabric, a commit whose record a full backup
        # refuses aborts, its value is read by no later transaction, and
        # every node is charged alike for what the commit did write (its
        # log entry): the record write is undone on every replica.
        config = SimulationConfig(processing_nodes=1, storage_nodes=3,
                                  replication_factor=3, partitions_per_node=1)
        # The deployment reads its clock only once the rig runs.
        deployment = Deployment(config, clock=lambda: rig.sim.now)
        cluster = deployment.cluster
        rig = FabricRig(cluster, deployment.commit_managers)
        run = rig.run
        pn = deployment.make_pn(0)
        key = (3, 1)

        def write(payload, insert=False):
            txn = yield from pn.begin()
            if insert:
                txn.insert(key, payload)
            else:
                yield from txn.update(key, payload)
            yield from txn.commit()

        def read():
            txn = yield from pn.begin()
            payload = yield from txn.read(key)
            yield from txn.commit()
            return payload

        run(write(("short",), insert=True))
        pid = cluster.partition_of(key)
        full = cluster.nodes[cluster.partition_map.replicas_of(pid)[-1]]
        full.capacity_bytes = full.bytes_used + 2_000  # a log entry fits
        before = {node_id: node.bytes_used
                  for node_id, node in cluster.nodes.items()}
        with pytest.raises(TransactionAborted):
            run(write(("x" * 5_000,)))
        (logged,) = {node.bytes_used - before[node_id]
                     for node_id, node in cluster.nodes.items()}
        assert logged > 0
        assert run(read()) == ("short",)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_increment_created_counter_is_charged_alike_on_every_replica(
            self):
        cluster = StorageCluster(n_nodes=3, replication_factor=3,
                                 partitions_per_node=1)
        cluster.execute(effects.Increment(SPACE, ("counter", "k"), 1))
        assert len({node.bytes_used for node in cluster.nodes.values()}) == 1


class TestSanitizersReadPutColumns:
    def test_commit_batch_feeds_the_shadow(self):
        cluster = StorageCluster(n_nodes=3)
        manager = CommitManager(0, cluster.execute)
        log, chain = make_sanitizers()
        dispatcher = Dispatcher(cluster, manager, pn_id=0,
                                interceptors=chain)
        pn = ProcessingNode(0)
        keys = [(3, rid) for rid in range(1, 6)]

        def load(txn):
            for key in keys:
                txn.insert(key, (key[1],))
            return None
            yield

        effects.run_direct(pn.run_transaction(load), dispatcher)

        def bump(txn):
            for key in keys[:3]:
                yield from txn.update(key, (-key[1],))

        effects.run_direct(pn.run_transaction(bump), dispatcher)
        log.assert_clean()
        (sanitizer,) = chain
        for key in keys:
            cell = cluster.execute(effects.Get(DATA_SPACE, key))
            assert sanitizer.shadow.cells[key].cell_version == cell[1]
        assert sanitizer.records_checked >= len(keys) + 3

    def test_stale_conditional_batch_is_reported(self, monkeypatch):
        """A store that applies a stale store-conditional is caught
        through the batch's columns, as for a single PutIfVersion."""
        cluster = StorageCluster(n_nodes=1)
        log, chain = make_sanitizers()
        dispatcher = Dispatcher(cluster, interceptors=chain)
        key = (3, 1)
        first = VersionedRecord.initial(0, ("a",))
        dispatcher.execute(effects.multi_put(DATA_SPACE, [key], [first]))
        second = first.updated(5, ("b",), 0)
        dispatcher.execute(effects.multi_put(DATA_SPACE, [key], [second], [1]))
        log.assert_clean()
        put_if_version = StorageNode.do_put_if_version

        def unconditional(self, partition_id, space, key, value, _expected):
            return put_if_version(self, partition_id, space, key, value, None)

        monkeypatch.setattr(StorageNode, "do_put_if_version", unconditional)
        third = second.updated(6, ("c",), 0)
        oks, versions = dispatcher.execute(
            effects.multi_put(DATA_SPACE, [key], [third], [1])
        )
        assert oks == [True] and versions == [3]
        assert "SI-STALE-SC" in log.codes()


def test_sanitized_run_commits_through_put_batches(monkeypatch):
    """A tiny TPC-C load and RF3 run with the sanitizer chain attached:
    the loader's and every commit's puts are batches, and the run is
    clean."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, replication_factor=3,
        threads_per_pn=2, scale=TpccScale.tiny(1),
        duration_us=4_000.0, warmup_us=0.0,
    ))
    deployment.run()  # asserts the sanitizer log clean
    assert deployment.sanitizer_log is not None
    assert sum(deployment.metrics.committed.values()) > 0
    assert deployment.cluster.replication_copies > 0


# -- rows ----------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


#: One exact-class value per column type, and the stored result.
EXACT = {
    ColumnType.INT: 7,
    ColumnType.BIGINT: 2 ** 40,
    ColumnType.FLOAT: 1.5,
    ColumnType.DECIMAL: 9.25,
    ColumnType.TEXT: "text",
    ColumnType.BOOL: True,
    ColumnType.TIMESTAMP: 1_700_000_000.5,
}


def schema_of(column_type, nullable=True):
    return TableSchema(1, "t", [
        Column("id", ColumnType.INT, nullable=False),
        Column("v", column_type, nullable=nullable, default=None),
    ], ["id"])


def reference_row(schema, values):
    """make_row as it was: every provided value through ``coerce``."""
    row = []
    for column in schema.columns:
        if column.name in values:
            value = coerce(values[column.name], column.type, column.name)
        else:
            value = column.default
        if value is None and not column.nullable:
            raise SchemaError(f"column {column.name} is NOT NULL")
        row.append(value)
    return tuple(row)


def outcome(build, schema, values):
    try:
        row = build(schema, values)
    except SchemaError:
        return "SchemaError"
    return [(type(value), value) for value in row]


class TestMakeRowPlan:
    def test_every_column_type_has_a_storage_class(self):
        assert set(EXACT) == set(ColumnType)

    @pytest.mark.parametrize("column_type", list(ColumnType),
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("value", [
        7, 2 ** 40, 1.5, 3.0, "text", True, False, None,
        Level.LOW, Name("n"), b"bytes",
    ], ids=repr)
    def test_same_row_or_error_as_coerce(self, column_type, value):
        schema = schema_of(column_type)
        values = {"id": 1, "v": value}
        assert outcome(TableSchema.make_row, schema, values) == outcome(
            reference_row, schema, values
        )

    @pytest.mark.parametrize("column_type", list(ColumnType),
                             ids=lambda t: t.value)
    def test_exact_class_values_are_stored_as_given(self, column_type):
        value = EXACT[column_type]
        row = schema_of(column_type).make_row({"id": 1, "v": value})
        assert row[1] is value

    def test_int_in_float_column_becomes_float(self):
        row = schema_of(ColumnType.FLOAT).make_row({"id": 1, "v": 3})
        assert row[1] == 3.0 and type(row[1]) is float

    def test_bool_in_int_column_raises(self):
        with pytest.raises(SchemaError):
            schema_of(ColumnType.INT).make_row({"id": 1, "v": True})

    def test_subclasses_go_through_coerce(self):
        row = schema_of(ColumnType.INT).make_row({"id": 1, "v": Level.LOW})
        assert row[1] is Level.LOW
        name = Name("n")
        assert schema_of(ColumnType.TEXT).make_row(
            {"id": 1, "v": name})[1] is name
        assert schema_of(ColumnType.FLOAT).make_row(
            {"id": 1, "v": Level.LOW})[1] == 1.0

    def test_none_in_not_null_column_raises(self):
        schema = schema_of(ColumnType.TEXT, nullable=False)
        with pytest.raises(SchemaError):
            schema.make_row({"id": 1, "v": None})
        with pytest.raises(SchemaError):
            schema.make_row({"id": 1})

    def test_mixed_case_names_still_resolve(self):
        row = schema_of(ColumnType.INT).make_row({"ID": 1, "V": 2})
        assert row == (1, 2)


class TestLogEntrySize:
    def test_size_is_memoized_and_survives_a_status_change(self):
        entry = LogEntry(9, 0, 1.0, [(1, 2), (1, 3), "meta"])
        size = entry.approx_size()
        assert size == 32 + sum(
            approx_size(key) for key in entry.write_set
        )
        entry.write_set = ()  # a memoized size does not walk it again
        assert entry.approx_size() == size
        committed = entry.with_status(STATUS_COMMITTED)
        assert committed.committed and committed.approx_size() == size
        assert approx_size(committed) == size
