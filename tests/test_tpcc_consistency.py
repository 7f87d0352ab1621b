"""TPC-C consistency conditions after a concurrent simulated run.

The TPC-C specification defines cross-table consistency conditions that
must hold in any committed state.  Running the full simulated deployment
(dozens of interleaved terminals, real conflicts and aborts) and then
checking them end-to-end is the strongest integration test the
reproduction has: a single lost update, phantom, partial commit, or
recovery bug would break one of these equations.
"""

import pytest

from repro import effects
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.sql.table import IndexManager, Table
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale


@pytest.fixture(scope="module")
def after_run():
    """A deployment that has executed a concurrent standard-mix burst."""
    config = TellConfig(
        processing_nodes=2,
        storage_nodes=3,
        threads_per_pn=8,
        scale=TpccScale.tiny(4),
        duration_us=120_000.0,
        warmup_us=0.0,
        seed=11,
    )
    deployment = SimulatedTell(config)
    deployment.load()
    metrics = deployment.run()
    assert metrics.total_committed > 100, "run too small to be meaningful"
    # Stopping the simulation leaves in-flight transactions like crashed
    # PNs; quiesce() runs the paper's recovery procedure on each of them.
    deployment.quiesce()
    pn = ProcessingNode(50)
    dispatcher = Dispatcher(deployment.cluster, deployment.commit_managers[0],
                            pn_id=50)
    return deployment, metrics, pn, dispatcher


def all_rows(after_run, table_name):
    deployment, _metrics, pn, dispatcher = after_run
    txn = run_direct(pn.begin(), dispatcher)
    table = Table(deployment.catalog.table(table_name), txn, IndexManager())
    rows = run_direct(table.scan(), dispatcher)
    run_direct(txn.commit(), dispatcher)
    schema = deployment.catalog.table(table_name)
    return [schema.row_to_dict(row) for _rid, row in rows]


class TestTpccConsistency:
    def test_consistency_1_district_next_o_id(self, after_run):
        """d_next_o_id - 1 == max(o_id) == max(no_o_id) per district."""
        districts = all_rows(after_run, "district")
        orders = all_rows(after_run, "orders")
        for district in districts:
            w, d = district["d_w_id"], district["d_id"]
            o_ids = [o["o_id"] for o in orders
                     if o["o_w_id"] == w and o["o_d_id"] == d]
            assert max(o_ids) == district["d_next_o_id"] - 1, (
                f"district ({w},{d}) lost or duplicated an order id"
            )

    def test_consistency_2_no_order_id_gaps_or_duplicates(self, after_run):
        orders = all_rows(after_run, "orders")
        per_district = {}
        for order in orders:
            per_district.setdefault(
                (order["o_w_id"], order["o_d_id"]), []
            ).append(order["o_id"])
        for key, ids in per_district.items():
            assert sorted(ids) == list(range(1, len(ids) + 1)), (
                f"district {key} has gaps/duplicates in order ids"
            )

    def test_consistency_3_neworder_contiguous(self, after_run):
        """New-order rows form a contiguous tail of the order ids."""
        neworders = all_rows(after_run, "neworder")
        per_district = {}
        for row in neworders:
            per_district.setdefault(
                (row["no_w_id"], row["no_d_id"]), []
            ).append(row["no_o_id"])
        for key, ids in per_district.items():
            ids.sort()
            assert ids == list(range(ids[0], ids[0] + len(ids)))

    def test_consistency_4_orderline_counts(self, after_run):
        """sum(o_ol_cnt) == number of order lines per district."""
        orders = all_rows(after_run, "orders")
        lines = all_rows(after_run, "orderline")
        expected = {}
        for order in orders:
            key = (order["o_w_id"], order["o_d_id"])
            expected[key] = expected.get(key, 0) + order["o_ol_cnt"]
        actual = {}
        for line in lines:
            key = (line["ol_w_id"], line["ol_d_id"])
            actual[key] = actual.get(key, 0) + 1
        assert actual == expected

    def test_orderline_numbers_complete_per_order(self, after_run):
        orders = all_rows(after_run, "orders")
        lines = all_rows(after_run, "orderline")
        per_order = {}
        for line in lines:
            key = (line["ol_w_id"], line["ol_d_id"], line["ol_o_id"])
            per_order.setdefault(key, []).append(line["ol_number"])
        for order in orders:
            key = (order["o_w_id"], order["o_d_id"], order["o_id"])
            numbers = sorted(per_order.get(key, []))
            assert numbers == list(range(1, order["o_ol_cnt"] + 1)), (
                f"order {key} has partial order lines (atomicity violation)"
            )

    def test_warehouse_ytd_equals_district_ytds(self, after_run):
        """W_YTD == sum(D_YTD): payments hit both monotonically."""
        warehouses = all_rows(after_run, "warehouse")
        districts = all_rows(after_run, "district")
        for warehouse in warehouses:
            district_sum = sum(
                d["d_ytd"] for d in districts
                if d["d_w_id"] == warehouse["w_id"]
            )
            base = 30_000.0 * len(
                [d for d in districts if d["d_w_id"] == warehouse["w_id"]]
            )
            payments_d = district_sum - base
            payments_w = warehouse["w_ytd"] - 300_000.0
            assert payments_w == pytest.approx(payments_d, abs=0.05), (
                f"warehouse {warehouse['w_id']}: lost payment updates"
            )

    def test_no_uncommitted_versions_remain(self, after_run):
        """Every version in the store belongs to a completed transaction
        (no transaction of a finished run may remain mid-commit)."""
        deployment, _metrics, _pn, _dispatcher = after_run
        manager = deployment.commit_managers[0]
        rows = deployment.cluster.execute(effects.Scan("data", None, None))
        for _key, record, _version in rows:
            for version in record.versions:
                assert manager.completed.contains(version.tid), (
                    f"version {version.tid} never completed"
                )

    def test_abort_rate_sane(self, after_run):
        _deployment, metrics, _pn, _dispatcher = after_run
        assert 0.0 <= metrics.abort_rate < 0.9
