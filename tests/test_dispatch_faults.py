"""End-to-end storage-node fault injection.

The paper's recovery claims (Section 4.4) say a shared-data deployment
survives storage-node failures: masters fail over to synchronously
replicated backups and the workload keeps committing.  These tests kill
one SN in the middle of a concurrent simulated TPC-C run (RF3) with a
simulator callback into the management node's fail-over and then check
the TPC-C consistency conditions end-to-end -- plus that the whole
faulty run is deterministic for a fixed seed, which is what makes
failure scenarios debuggable at all.
"""

import pytest

from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher, TraceInterceptor
from repro.effects import run_direct
from repro.sql.table import IndexManager, Table
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import shared_run

KILL_AT_US = 60_000.0
KILLED_NODE = 1
#: Every table the consistency checks read after the faulty run.
CHECKED_TABLES = ("warehouse", "district", "orders", "orderline")


def _config(seed=11):
    return TellConfig(
        processing_nodes=2,
        storage_nodes=3,
        replication_factor=3,
        threads_per_pn=8,
        scale=TpccScale.tiny(4),
        duration_us=120_000.0,
        warmup_us=0.0,
        seed=seed,
    )


def _run_with_kill(seed=11):
    deployment = SimulatedTell(_config(seed))
    deployment.sim.call_at(
        KILL_AT_US,
        lambda: deployment.management.handle_node_failure(KILLED_NODE))
    return deployment, deployment.run()


@shared_run()
def killed_run():
    """The seed-23 run with the kill: ``(deployment, metrics)``."""
    return _run_with_kill(seed=23)


def _read_tables(deployment, names):
    """Every row of each named table, as dicts, read in one transaction."""
    pn = ProcessingNode(50)
    dispatcher = Dispatcher(deployment.cluster, deployment.commit_managers[0],
                            pn_id=50)
    txn = run_direct(pn.begin(), dispatcher)
    rows = {}
    for name in names:
        schema = deployment.catalog.table(name)
        scanned = run_direct(
            Table(schema, txn, IndexManager()).scan(), dispatcher)
        rows[name] = [schema.row_to_dict(row) for _rid, row in scanned]
    run_direct(txn.commit(), dispatcher)
    return rows


@shared_run()
def after_faulty_run():
    """The quiesced seed-11 run with the kill:
    ``(deployment, metrics, rows)``, ``rows`` mapping each of
    :data:`CHECKED_TABLES` to its rows."""
    deployment, metrics = _run_with_kill()
    deployment.quiesce()
    return deployment, metrics, _read_tables(deployment, CHECKED_TABLES)


class TestSnKillFailover:
    def test_fault_fired_and_node_is_dead(self, after_faulty_run):
        deployment, _metrics, _rows = after_faulty_run
        assert not deployment.cluster.nodes[KILLED_NODE].alive
        assert KILLED_NODE not in deployment.cluster.live_nodes()
        assert deployment.management.recoveries_completed == 1

    def test_workload_keeps_committing_after_the_kill(self, after_faulty_run):
        _deployment, metrics, _rows = after_faulty_run
        # Latencies are recorded at commit time; commits after the kill
        # prove the fail-over actually served traffic.
        post_kill_commits = sum(
            1 for values in metrics.latencies_us.values() for _ in values
        )
        assert metrics.total_committed > 100
        assert post_kill_commits == metrics.total_committed
        assert metrics.abort_rate < 0.9

    def test_every_partition_has_a_live_master(self, after_faulty_run):
        deployment, _metrics, _rows = after_faulty_run
        pmap = deployment.cluster.partition_map
        for pid in range(deployment.cluster.partitioner.n_partitions):
            master = pmap.master_of(pid)
            assert deployment.cluster.nodes[master].alive

    def test_consistency_district_next_o_id(self, after_faulty_run):
        rows = after_faulty_run[2]
        districts, orders = rows["district"], rows["orders"]
        for district in districts:
            w, d = district["d_w_id"], district["d_id"]
            o_ids = [o["o_id"] for o in orders
                     if o["o_w_id"] == w and o["o_d_id"] == d]
            assert max(o_ids) == district["d_next_o_id"] - 1, (
                f"district ({w},{d}) lost or duplicated an order id "
                f"across the fail-over"
            )

    def test_consistency_order_ids_contiguous(self, after_faulty_run):
        orders = after_faulty_run[2]["orders"]
        per_district = {}
        for order in orders:
            per_district.setdefault(
                (order["o_w_id"], order["o_d_id"]), []
            ).append(order["o_id"])
        for key, ids in per_district.items():
            assert sorted(ids) == list(range(1, len(ids) + 1)), (
                f"district {key} has gaps/duplicates in order ids"
            )

    def test_consistency_orderline_counts(self, after_faulty_run):
        rows = after_faulty_run[2]
        orders, lines = rows["orders"], rows["orderline"]
        expected = {}
        for order in orders:
            key = (order["o_w_id"], order["o_d_id"])
            expected[key] = expected.get(key, 0) + order["o_ol_cnt"]
        actual = {}
        for line in lines:
            key = (line["ol_w_id"], line["ol_d_id"])
            actual[key] = actual.get(key, 0) + 1
        assert actual == expected

    def test_consistency_warehouse_ytd(self, after_faulty_run):
        rows = after_faulty_run[2]
        warehouses, districts = rows["warehouse"], rows["district"]
        for warehouse in warehouses:
            own = [d for d in districts if d["d_w_id"] == warehouse["w_id"]]
            payments_d = sum(d["d_ytd"] for d in own) - 30_000.0 * len(own)
            payments_w = warehouse["w_ytd"] - 300_000.0
            assert payments_w == pytest.approx(payments_d, abs=0.05), (
                f"warehouse {warehouse['w_id']}: lost payment updates"
            )

    def test_no_uncommitted_versions_remain(self, after_faulty_run):
        from repro import effects

        deployment, _metrics, _rows = after_faulty_run
        manager = deployment.commit_managers[0]
        rows = deployment.cluster.execute(effects.Scan("data", None, None))
        for _key, record, _version in rows:
            for version in record.versions:
                assert manager.completed.contains(version.tid), (
                    f"version {version.tid} never completed"
                )


class TestFaultDeterminism:
    def test_fixed_seed_reproduces_the_faulty_run(self, killed_run):
        _d1, metrics_a = killed_run
        _d2, metrics_b = _run_with_kill(seed=23)
        assert metrics_a.digest() == metrics_b.digest()

    def test_the_kill_actually_changes_the_run(self, killed_run):
        clean = SimulatedTell(_config(seed=23)).run()
        _d, faulty = killed_run
        assert clean.digest() != faulty.digest()


class TestTraceInvariance:
    def test_trace_interceptor_is_behaviour_invariant(self):
        """A traced run commits the exact same transactions at the exact
        same simulated times as an untraced one -- the digest is the
        acceptance criterion for the whole pipeline refactor."""
        config = TellConfig(
            processing_nodes=2,
            storage_nodes=3,
            threads_per_pn=4,
            scale=TpccScale.tiny(2),
            duration_us=40_000.0,
            warmup_us=4_000.0,
            seed=7,
        )
        plain = SimulatedTell(config)
        bare = plain.run()
        trace = TraceInterceptor()
        observed = SimulatedTell(config, interceptors=[trace])
        traced = observed.run()
        assert bare.digest() == traced.digest()
        # One request path: the chain adds observers, not work.
        assert plain.sim.events_processed == observed.sim.events_processed
        for count in ("messages", "store_ops", "bytes_sent"):
            assert getattr(plain.fabric.stats, count) \
                == getattr(observed.fabric.stats, count) > 0
        latency = trace.registry.histogram("repro_request_latency_us")
        assert sum(cell[0] for cell in latency.series().values()) > 1_000
        assert latency.count(**{"class": "Compute"}) > 0
        assert trace.registry.counter("repro_request_bytes").value(
            **{"class": "Batch"}) > 0
        # simulated latency was measured, not wall-clock
        assert latency.sum(**{"class": "Get"}) > 0.0
