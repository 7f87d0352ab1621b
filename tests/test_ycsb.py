"""Tests for the YCSB-style workload."""

import random

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import TransactionAborted
from repro.sql.table import IndexManager
from repro.store.cluster import StorageCluster
from repro.workloads.loader import BulkLoader
from repro.workloads.ycsb import (
    WORKLOAD_A,
    WORKLOAD_C,
    WORKLOAD_E,
    WORKLOADS,
    YcsbClient,
    ZipfianGenerator,
    build_ycsb_catalog,
    populate_ycsb,
    ycsb_rows,
)

RECORDS = 200


@pytest.fixture
def env():
    cluster = StorageCluster(n_nodes=2)
    catalog = build_ycsb_catalog()
    indexes = IndexManager()
    loader = BulkLoader(catalog, indexes)
    dispatcher = Dispatcher(cluster)
    count = effects.run_direct(
        populate_ycsb(loader, RECORDS), dispatcher
    )
    assert count == RECORDS
    cm = CommitManager(0, cluster.execute)
    pn = ProcessingNode(0)
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    return catalog, indexes, pn, dispatcher


def run_op(env, client, op, args):
    catalog, indexes, pn, dispatcher = env

    def logic(txn):
        return (yield from client.execute(txn, op, args))

    result, _ = run_direct(pn.run_transaction(logic), dispatcher)
    return result


class TestZipfian:
    def test_range(self):
        zipf = ZipfianGenerator(100, seed=1)
        samples = [zipf.next() for _ in range(2000)]
        assert all(0 <= s < 100 for s in samples)

    def test_skew(self):
        zipf = ZipfianGenerator(1000, theta=0.99, seed=2)
        samples = [zipf.next() for _ in range(5000)]
        top_decile = sum(1 for s in samples if s < 100)
        assert top_decile > len(samples) * 0.4  # heavily skewed head

    def test_single_key(self):
        zipf = ZipfianGenerator(1, seed=3)
        assert all(zipf.next() == 0 for _ in range(20))

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)


def test_rows_are_their_make_row():
    schema = build_ycsb_catalog().table("usertable")
    rows = list(ycsb_rows(RECORDS))
    assert len(rows) == RECORDS
    for row in rows:
        built = schema.make_row(dict(zip(schema.column_names, row)))
        assert [(repr(v), v.__class__) for v in row] == [
            (repr(v), v.__class__) for v in built]


class TestMixes:
    def test_all_defined(self):
        assert set(WORKLOADS) == {"A", "B", "C", "D", "E", "F"}

    def test_weights_sum_to_one(self):
        for mix in WORKLOADS.values():
            total = (mix.read + mix.update + mix.insert + mix.scan
                     + mix.read_modify_write)
            assert total == pytest.approx(1.0)

    def test_pick_distribution(self):
        rng = random.Random(5)
        picks = [WORKLOAD_A.pick(rng) for _ in range(2000)]
        assert 0.4 < picks.count("read") / 2000 < 0.6
        assert 0.4 < picks.count("update") / 2000 < 0.6


class TestOperations:
    def test_read(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_C, seed=1)
        found = run_op(env, client, "read", {"key": 5})
        assert found is not None
        rid, row = found
        assert row[0] == 5

    def test_update_changes_a_field(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_A, seed=2)
        before = run_op(env, client, "read", {"key": 7})[1]
        run_op(env, client, "update", {"key": 7})
        after = run_op(env, client, "read", {"key": 7})[1]
        assert before != after
        assert before[0] == after[0] == 7

    def test_scan_returns_ordered_run(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_E, seed=3)
        rows = run_op(env, client, "scan", {"key": 50, "length": 10})
        keys = [row[0] for _rid, row in rows]
        assert keys == list(range(50, 60))

    def test_insert_uses_fresh_keys(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_E, seed=4)
        op, args = None, None
        while op != "insert":
            op, args = client.next_operation()
        assert args["key"] >= RECORDS
        run_op(env, client, "insert", args)
        found = run_op(env, client, "read", {"key": args["key"]})
        assert found is not None

    def test_read_modify_write(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_A, seed=5)
        result = run_op(env, client, "read_modify_write", {"key": 3})
        assert result is not None

    def test_conflicting_updates_one_loses(self, env):
        catalog, indexes, pn, dispatcher = env
        client = YcsbClient(catalog, indexes, RECORDS, WORKLOAD_A, seed=6)

        txn_a = run_direct(pn.begin(), dispatcher)
        txn_b = run_direct(pn.begin(), dispatcher)
        run_direct(client.execute(txn_a, "update", {"key": 1}), dispatcher)
        run_direct(client.execute(txn_b, "update", {"key": 1}), dispatcher)
        run_direct(txn_a.commit(), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(txn_b.commit(), dispatcher)

    def test_mixed_stream_runs_clean(self, env):
        catalog, indexes, pn, dispatcher = env
        for name, mix in WORKLOADS.items():
            client = YcsbClient(catalog, indexes, RECORDS, mix, seed=hash(name) & 0xFF)
            for _ in range(25):
                op, args = client.next_operation()
                run_op(env, client, op, args)
