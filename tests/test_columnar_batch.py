"""The columnar multi-key read: ``multi_get`` carries ``(space, keys)``
and resolves to ``(values, versions)``.

A ``Batch`` built by :func:`repro.effects.multi_get` stands for one
``Get`` per key but never builds them; every driver serves the keys
directly and fills two result columns in key order.  These tests pin
(1) that nothing per key -- no request, no ``(value, version)`` pair, no
closure -- stays alive while such a read is in flight, and that no read
leaves a per-key tuple or list in the transaction or the buffer: an
object that lives across simulated time is promoted to the cycle
collector's oldest generation and rescanned by every full collection;
(2) that every driver returns the same columns, and that they hold what
the same ``Get``\\ s sent one by one return one pair per request.
"""

import gc
import types

import pytest

from repro import effects
from repro.core.buffers import make_strategy
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.record import VersionedRecord
from repro.core.spaces import DATA_SPACE
from repro.dispatch import Dispatcher, FaultRule, TraceInterceptor
from repro.effects import run_direct
from repro.runtime import fabric as fabric_module
from repro.san import make_sanitizers
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import Table
from repro.store.cell import request_size
from repro.store.cluster import StorageCluster
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import FabricRig

#: Keys spread over every node; every third one is stored.
KEYS = [(7, rid) for rid in range(60)]


def columnar():
    return effects.multi_get(DATA_SPACE, KEYS)


def op_list():
    """The single-key requests the columnar read stands for."""
    return [effects.Get(DATA_SPACE, key) for key in KEYS]


def populated_cluster():
    cluster = StorageCluster(n_nodes=3, replication_factor=1,
                             partitions_per_node=4)
    for key in KEYS[::3]:
        cluster.execute(effects.Put(
            DATA_SPACE, key, VersionedRecord.initial(0, ("row",) + key)))
    return cluster


def payload(value):
    return None if value is None else value.payloads[0]


def shape(columns):
    """A columnar result with each record replaced by its payload."""
    values, versions = columns
    return [payload(value) for value in values], versions


def cell_holds(cell, target):
    try:
        return cell.cell_contents is target
    except ValueError:  # an empty cell
        return False


def simulate(batch, **config):
    """One batch (or a list of requests, sent one after the other)
    through a fresh fabric: (result, finish time, stats)."""
    cluster = populated_cluster()
    rig = FabricRig(cluster, **config)
    if isinstance(batch, list):
        value = rig.perform(*batch)
    else:
        (value,) = rig.perform(batch)
    stats = rig.fabric.stats
    reads = [node.ops_read for node in cluster.nodes.values()]
    return (value, rig.sim.now,
            (stats.messages, stats.store_ops, stats.bytes_sent, reads))


def test_no_per_key_request_object_outlives_the_send():
    """While a 2 000-key read is in flight, the only tracked object per
    message is the message itself: no ``Get``, no tuple holding a
    request or a ``(value, version)`` pair, no closure or cell; once
    served, a message holds nothing but the result columns."""
    # Cyclic garbage that earlier tests left behind stays in
    # gc.get_objects() until the collector next runs.
    gc.collect()
    cluster = StorageCluster(n_nodes=2, replication_factor=1,
                             partitions_per_node=4)
    keys = [(7, rid) for rid in range(2_000)]
    stored = {key: ["row", key[1]] for key in keys[::2]}
    for key, value in stored.items():
        cluster.execute(effects.Put("guard", key, value))
    stored_ids = {id(value) for value in stored.values()}
    rig = FabricRig(cluster)
    sim = rig.sim
    service_ends = []
    schedule = sim.call_at

    def spy(when, callback):
        if type(callback) is fabric_module._Message:
            service_ends.append(when)
        schedule(when, callback)

    sim.call_at = spy
    seen = {}

    # Requests other tests left alive are not this read's: count only
    # what addresses this read's own space.
    def ours(obj):
        return isinstance(obj, effects.StoreRequest) and obj.space == "guard"

    def census(label):
        tracked = gc.get_objects()
        messages = [obj for obj in tracked
                    if type(obj) is fabric_module._Message]
        seen[label] = {
            "at": sim.now,
            "messages": len(messages),
            "gets": sum(
                1 for obj in tracked if type(obj) is effects.Get and ours(obj)
            ),
            "request_tuples": sum(
                1 for obj in tracked
                if type(obj) is tuple and any(ours(item) for item in obj)
            ),
            "pairs": sum(
                1 for obj in tracked
                if type(obj) is tuple and len(obj) == 2
                and id(obj[0]) in stored_ids
            ),
            "bound_applies": sum(
                1 for obj in tracked
                if type(obj) is types.MethodType
                and type(obj.__self__) is fabric_module._Message
            ),
            "closures": sum(
                1 for obj in tracked
                if type(obj) is types.FunctionType
                and obj.__module__ == fabric_module.__name__
                and obj.__closure__ is not None
            ),
            "member_cells": sum(
                1 for obj in tracked
                if type(obj) is types.CellType and cell_holds(obj, batch.keys)
            ),
            "carried": sum(
                1 for message in messages
                for part in ("positions", "pids", "request")
                if hasattr(message, part)
            ),
        }

    def in_flight():
        census("sent")
        # Same instant as the last service, scheduled after it: every
        # message is served and no response has arrived yet.
        schedule(max(service_ends), lambda: census("served"))

    batch = effects.multi_get("guard", keys)

    schedule(1.0, in_flight)
    (seen["value"],) = rig.perform(batch)
    seen["done"] = sim.now
    sent, served = seen["sent"], seen["served"]
    assert sent["at"] < served["at"] < seen["done"]  # mid round trip
    assert len(service_ends) == sent["messages"] == served["messages"] == 2
    for counts in (sent, served):
        assert counts["gets"] == counts["request_tuples"] == 0
        assert counts["pairs"] == 0
        assert counts["bound_applies"] == counts["closures"] == 0
        assert counts["member_cells"] == 0
    assert sent["carried"] == 6 and served["carried"] == 0
    values, versions = seen["value"]
    assert values == [stored.get(key) for key in keys]
    assert versions == [1 if key in stored else 0 for key in keys]


@pytest.mark.parametrize("name", ["tb", "sb", "sbvs10"])
def test_reads_leave_no_per_key_tuple_or_list(name):
    """After reads through each buffering strategy -- misses, hits, and
    a refetch after a remote write -- neither the transaction nor the
    buffer holds a tuple or list per key: a record read is referenced
    only by parallel maps and the store's cell."""
    cluster = StorageCluster(n_nodes=2)
    cm = CommitManager(0, cluster.execute)
    pn = ProcessingNode(0, buffers=make_strategy(name))
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    keys = [(1, rid) for rid in range(1, 25)]

    def load(txn):
        for key in keys:
            txn.insert(key, (key[1],))
        return None
        yield

    run_direct(pn.run_transaction(load), dispatcher)
    first = run_direct(pn.begin(), dispatcher)
    assert run_direct(first.read_many(keys), dispatcher) == {
        key: (key[1],) for key in keys
    }
    run_direct(first.commit(), dispatcher)

    def bump(txn):
        yield from txn.update(keys[0], (-1,))

    run_direct(pn.run_transaction(bump), dispatcher)
    reader = run_direct(pn.begin(), dispatcher)
    values = run_direct(reader.read_many(keys), dispatcher)
    assert values[keys[0]] == (-1,) and values[keys[1]] == (2,)

    buffers = pn.buffers
    maps = [reader._records, reader._versions]
    if name != "tb":
        maps += [buffers._records, buffers._versions, buffers._validity]
    for mapping in maps:
        assert set(mapping) >= set(keys)
        assert not any(isinstance(value, (tuple, list))
                       for value in mapping.values())
    for key in keys:
        referrers = gc.get_referrers(reader._records[key])
        assert not [ref for ref in referrers if isinstance(ref, (tuple, list))]


def execute_each(cluster, requests):
    return [cluster.execute(request) for request in requests]


class TestColumnarMatchesOpList:
    """A columnar read against the list of single ``Get``\\ s it
    stands for."""

    def test_ops_are_the_gets_it_stands_for(self):
        batch = columnar()
        assert batch.keys == KEYS and batch.values is None
        assert [(batch.batch_space, key) for key in batch.keys] == [
            (op.space, op.key) for op in op_list()
        ]
        assert repr(batch) == f"Batch(get 'data', {len(KEYS)} keys)"

    @pytest.mark.parametrize("config", [{}, {"batching": False}],
                             ids=["batched", "unbatched"])
    def test_same_result_time_and_traffic_through_the_fabric(self, config):
        columns, at, traffic = simulate(columnar(), **config)
        pairs, op_list_at, op_list_traffic = simulate(op_list(), **config)
        if config:
            # Unbatched, the read is those Gets, one round trip each.
            assert (at, traffic) == (op_list_at, op_list_traffic)
        else:
            # Batched: the same operations, bytes and node reads in one
            # message per node, and so sooner.
            messages, store_ops, bytes_sent, reads = traffic
            assert (store_ops, bytes_sent, reads) == op_list_traffic[1:]
            assert messages == 3 < op_list_traffic[0] == len(KEYS)
            assert at < op_list_at
        values, versions = columns
        assert [(payload(value), version) for value, version in pairs] == [
            (payload(value), version)
            for value, version in zip(values, versions)
        ]

    def test_same_result_through_storage_cluster_execute(self):
        values, versions = populated_cluster().execute(columnar())
        pairs = execute_each(populated_cluster(), op_list())
        assert [payload(value) for value, _version in pairs] == [
            payload(value) for value in values
        ]
        assert [version for _value, version in pairs] == versions
        assert payload(values[0]) == ("row",) + KEYS[0] and versions[0] == 1
        assert values[1] is None and versions[1] == 0

    def test_same_columns_through_every_driver(self):
        expected = shape(populated_cluster().execute(columnar()))
        log, chain = make_sanitizers()
        results = {
            "fabric batched": simulate(columnar())[0],
            "fabric unbatched": simulate(columnar(), batching=False)[0],
            "Dispatcher": Dispatcher(populated_cluster()).execute(columnar()),
            "sanitizer chain": Dispatcher(
                populated_cluster(), interceptors=chain
            ).execute(columnar()),
        }
        for driver, result in results.items():
            assert type(result) is tuple, driver
            assert shape(result) == expected, driver
        assert log.clean

    def test_same_request_size(self):
        assert request_size(columnar()) == sum(
            request_size(op) for op in op_list()
        )

    def test_same_trace_row(self):
        trace = TraceInterceptor()
        Dispatcher(populated_cluster(), interceptors=[trace]).execute(
            columnar()
        )
        registry = trace.registry
        labels = {"class": "Batch"}
        assert (
            registry.histogram("repro_request_latency_us").count(**labels),
            registry.counter("repro_request_ops").value(**labels),
            registry.counter("repro_request_bytes").value(**labels),
        ) == (1, len(KEYS), sum(request_size(op) for op in op_list()))

    def test_same_fault_matching(self):
        batch = columnar()
        assert FaultRule(op="Batch").matches(batch)
        # Space rules match single-key requests only.
        assert not FaultRule(space=DATA_SPACE).matches(batch)
        assert FaultRule(space=DATA_SPACE).matches(op_list()[0])
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
    pn, indexes = deployment.make_pn(0)
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
        deployment.spawn(0, statement(name, sql, params), name)
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
