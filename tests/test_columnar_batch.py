"""The columnar multi-key read: ``multi_get`` carries ``(space, keys)``.

A ``Batch`` built by :func:`repro.effects.multi_get` stands for one
``Get`` per key but builds those ``Get``\\ s only when something reads
``.ops``; the simulated fabric routes, sizes and applies the keys
directly.  These tests pin (1) that nothing per key referencing a request
stays alive while such a read is in flight -- an object that lives across
simulated time is promoted to the cycle collector's oldest generation and
rescanned by every full collection -- and (2) that the columnar form is
indistinguishable from the op-list ``Batch`` of the same ``Get``\\ s
everywhere a batch is observed.
"""

import gc

import pytest

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.simcluster import SimulatedTell
from repro.core.commit_manager import CommitManager
from repro.core.spaces import DATA_SPACE
from repro.dispatch import Dispatcher, FaultRule, TraceInterceptor
from repro.runtime.config import SimulationConfig
from repro.runtime.fabric import CorePool, SimFabric
from repro.sim.kernel import Simulator
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import Table
from repro.store.cell import request_size
from repro.store.cluster import StorageCluster
from repro.workloads.tpcc.params import TpccScale

#: Keys spread over every node; every third one is stored.
KEYS = [(7, rid) for rid in range(60)]


def columnar():
    return effects.multi_get(DATA_SPACE, KEYS)


def op_list():
    return effects.Batch([effects.Get(DATA_SPACE, key) for key in KEYS])


def populated_cluster():
    cluster = StorageCluster(n_nodes=3, replication_factor=1,
                             partitions_per_node=4)
    for key in KEYS[::3]:
        cluster.execute(effects.Put(DATA_SPACE, key, ("row",) + key))
    return cluster


def simulate(batch, **config):
    """One batch through a fresh fabric: (result, finish time, stats)."""
    cluster = populated_cluster()
    sim = Simulator()
    fabric = SimFabric(
        sim, cluster, [CommitManager(0, cluster.execute)],
        SimulationConfig(storage_nodes=3, partitions_per_node=4, **config),
    )
    holder = {}

    def proc():
        holder["value"] = yield from fabric.perform(CorePool(4), 0, batch)
        holder["at"] = sim.now

    sim.run_until_complete(sim.spawn(proc()))
    stats = fabric.stats
    reads = [node.ops_read for node in cluster.nodes.values()]
    return (holder["value"], holder["at"],
            (stats.messages, stats.store_ops, stats.bytes_sent, reads))


def test_no_per_key_request_object_outlives_the_send():
    """While a 2 000-key read is in flight, no ``Get`` and no tuple
    holding a request is tracked by the cycle collector."""
    cluster = StorageCluster(n_nodes=2, replication_factor=1,
                             partitions_per_node=4)
    sim = Simulator()
    fabric = SimFabric(sim, cluster, [CommitManager(0, cluster.execute)],
                       SimulationConfig(storage_nodes=2, partitions_per_node=4))
    keys = [(7, rid) for rid in range(2_000)]
    seen = {}

    # Requests other tests left alive are not this read's: count only
    # what addresses this read's own space.
    def ours(obj):
        return isinstance(obj, effects.StoreRequest) and obj.space == "guard"

    def census():
        tracked = gc.get_objects()
        seen["gets"] = sum(
            1 for obj in tracked if type(obj) is effects.Get and ours(obj)
        )
        seen["tuples"] = sum(
            1 for obj in tracked
            if type(obj) is tuple and any(ours(item) for item in obj)
        )
        seen["at"] = sim.now

    def proc():
        seen["value"] = yield from fabric.perform(
            CorePool(4), 0, effects.multi_get("guard", keys)
        )
        seen["done"] = sim.now

    sim.call_at(1.0, census)
    sim.run_until_complete(sim.spawn(proc()))
    assert seen["at"] < seen["done"]  # the census ran mid round trip
    assert seen["gets"] == 0
    assert seen["tuples"] == 0
    assert seen["value"] == [(None, 0)] * len(keys)


class TestColumnarMatchesOpList:
    def test_ops_are_the_gets_it_stands_for(self):
        batch = columnar()
        assert batch.keys == KEYS and batch.op_count == len(KEYS)
        assert [(op.space, op.key) for op in batch.ops] == [
            (op.space, op.key) for op in op_list().ops
        ]
        assert batch.ops is batch.ops  # built once
        assert repr(batch) == repr(op_list()) == f"Batch({len(KEYS)} ops)"

    @pytest.mark.parametrize("config", [{}, {"batching": False}],
                             ids=["batched", "unbatched"])
    def test_same_result_time_and_traffic_through_the_fabric(self, config):
        assert simulate(columnar(), **config) == simulate(op_list(), **config)

    def test_same_result_through_storage_cluster_execute(self):
        cluster = populated_cluster()
        expected = cluster.execute(op_list())
        assert cluster.execute(columnar()) == expected
        assert expected[0] == (("row",) + KEYS[0], 1) and expected[1] == (None, 0)

    def test_same_request_size(self):
        assert request_size(columnar()) == request_size(op_list())

    def test_same_trace_row(self):
        rows = []
        for batch in (columnar(), op_list()):
            trace = TraceInterceptor()
            Dispatcher(populated_cluster(), interceptors=[trace]).execute(batch)
            labels = {"class": "Batch"}
            registry = trace.registry
            rows.append((
                registry.histogram("repro_request_latency_us").count(**labels),
                registry.counter("repro_request_ops").value(**labels),
                registry.counter("repro_request_bytes").value(**labels),
            ))
        assert rows[0] == rows[1] == (1, len(KEYS), request_size(op_list()))

    def test_same_fault_matching(self):
        for batch in (columnar(), op_list()):
            assert FaultRule(op="Batch").matches(batch)
            assert not FaultRule(space=DATA_SPACE).matches(batch)
            assert not FaultRule(op="Get").matches(batch)


ANALYTIC = ("SELECT COUNT(*) FROM orderline "
            "WHERE ol_w_id = ? AND ol_amount >= 9000.0")
WAREHOUSE_LINES = "SELECT COUNT(*) FROM orderline WHERE ol_w_id = ?"


def test_sanitized_range_read_stays_clean(monkeypatch):
    """sql_mixed's analytic shape -- an index range over one warehouse's
    order lines, read as one columnar batch -- under the sanitizer chain
    while another terminal updates lines of that warehouse."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, threads_per_pn=2,
        scale=TpccScale.tiny(2),
    ))
    deployment.load()
    pn, pool, cm_index, indexes = deployment._make_pn(0)
    counts = {}

    def statement(name, sql, params):
        txn = yield from pn.begin()
        executor = StatementExecutor(
            lambda table: Table(deployment.catalog.table(table), txn, indexes),
            params,
        )
        stmt = parse(sql)
        if sql.startswith("SELECT"):
            counts[name] = (yield from executor.select(stmt))
        else:
            yield from executor.update(stmt)
        yield from txn.commit()

    scripts = [
        ("lines", WAREHOUSE_LINES, [1]),
        ("update", "UPDATE orderline SET ol_amount = ? WHERE ol_w_id = ? "
                   "AND ol_d_id = ? AND ol_o_id = ?", [9500.0, 1, 2, 3]),
        ("analytic", ANALYTIC, [1]),
    ]
    for name, sql, params in scripts:
        deployment.sim.spawn(deployment._drive(
            pool, cm_index, statement(name, sql, params), pn_id=0))
    deployment.sim.run()
    deployment.sanitizer_log.assert_clean()
    assert sum(deployment.sanitizer_log.reconciliations.values()) > 0
    # Every line of the warehouse came back through the columnar read.
    schema = deployment.catalog.table("orderline")
    stored = deployment.cluster.execute(effects.Scan(
        DATA_SPACE, (schema.table_id,), (schema.table_id + 1,)))
    w_id = schema.position("ol_w_id")
    expected = sum(1 for _key, record, _cell in stored
                   if record.payloads[-1][w_id] == 1)
    assert counts["lines"].scalar() == expected > 0
    assert 0 < counts["analytic"].scalar() < expected
