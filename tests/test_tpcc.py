"""Tests for the TPC-C workload: parameters, population, transactions."""

import random

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.sql.table import IndexManager, Table
from repro.store.cluster import StorageCluster
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.mixes import (
    READ_INTENSIVE_MIX,
    SHARDABLE_MIX,
    STANDARD_MIX,
)
from repro.workloads.tpcc.params import (
    ParamGenerator,
    TpccScale,
    last_name,
)
from repro.workloads.tpcc.population import populate
from repro.workloads.tpcc.schema import build_tpcc_catalog
from repro.workloads.tpcc.transactions import (
    TRANSACTIONS,
    TpccContext,
    TpccRollback,
    delivery,
    new_order,
    order_status,
    payment,
    stock_level,
)

SCALE = TpccScale.tiny(2)


@pytest.fixture(scope="module")
def loaded():
    """A populated tiny TPC-C database (module-scoped: populate once)."""
    cluster = StorageCluster(n_nodes=3)
    catalog = build_tpcc_catalog()
    indexes = IndexManager()
    loader = BulkLoader(catalog, indexes)
    dispatcher = Dispatcher(cluster)
    counts = effects.run_direct(populate(catalog, loader, SCALE, seed=3), dispatcher)
    cm = CommitManager(0, cluster.execute)
    return cluster, catalog, cm, counts


@pytest.fixture
def env(loaded):
    cluster, catalog, cm, _counts = loaded
    pn = ProcessingNode(0)
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    return cluster, catalog, cm, pn, dispatcher


def run_txn(env, txn_fn, params):
    cluster, catalog, cm, pn, dispatcher = env
    txn = run_direct(pn.begin(), dispatcher)
    context = TpccContext(catalog, txn, IndexManager())
    context.districts_per_warehouse = SCALE.districts_per_warehouse
    result = run_direct(txn_fn(context, params), dispatcher)
    run_direct(txn.commit(), dispatcher)
    return result


def read_row(env, table_name, pk):
    cluster, catalog, cm, pn, dispatcher = env
    txn = run_direct(pn.begin(), dispatcher)
    table = Table(catalog.table(table_name), txn, IndexManager())
    found = run_direct(table.get(pk), dispatcher)
    run_direct(txn.commit(), dispatcher)
    if found is None:
        return None
    return catalog.table(table_name).row_to_dict(found[1])


class TestParams:
    def test_last_name_syllables(self):
        assert last_name(0) == "BARBARBAR"
        assert last_name(371) == "PRICALLYOUGHT"
        assert last_name(999) == "EYINGEYINGEYING"

    def test_new_order_item_counts(self):
        gen = ParamGenerator(TpccScale.spec(10), seed=1)
        for _ in range(50):
            params = gen.new_order()
            assert 5 <= len(params.items) <= 15
            assert all(1 <= q <= 10 for _i, _w, q in params.items)
            item_ids = [i for i, _w, _q in params.items]
            assert len(set(item_ids)) == len(item_ids)

    def test_remote_rates_roughly_match_spec(self):
        gen = ParamGenerator(TpccScale.spec(10), seed=7)
        remote_orders = sum(
            1 for _ in range(2000) if not gen.new_order().all_local
        )
        # ~1% per item, 5-15 items -> ~10% of orders touch a remote WH.
        assert 0.04 < remote_orders / 2000 < 0.2
        remote_payments = sum(
            1 for _ in range(2000)
            if gen.payment().c_w_id != gen.payment().w_id
        )
        assert remote_payments > 0

    def test_shardable_has_no_remote_accesses(self):
        gen = ParamGenerator(TpccScale.spec(10), seed=5, remote_accesses=False)
        for _ in range(300):
            assert gen.new_order().all_local
            p = gen.payment()
            assert p.c_w_id == p.w_id

    def test_home_warehouse_pinning(self):
        gen = ParamGenerator(TpccScale.spec(10), seed=5, home_warehouse=3)
        assert all(gen.new_order().w_id == 3 for _ in range(20))

    def test_nurand_skew(self):
        """NURand concentrates on a subset of the key space."""
        gen = ParamGenerator(TpccScale.spec(2), seed=11)
        ids = [gen.random.customer_id() for _ in range(3000)]
        assert len(set(ids)) < 2200  # noticeably fewer than uniform

    def test_determinism(self):
        a = ParamGenerator(SCALE, seed=42).new_order()
        b = ParamGenerator(SCALE, seed=42).new_order()
        assert (a.w_id, a.d_id, a.c_id, a.items) == (
            b.w_id, b.d_id, b.c_id, b.items
        )


class TestMixes:
    def test_table2_weights(self):
        weights = dict(STANDARD_MIX.weights)
        assert weights["new_order"] == 45.0
        assert weights["payment"] == 43.0
        read_weights = dict(READ_INTENSIVE_MIX.weights)
        assert read_weights["order_status"] == 84.0

    def test_write_ratios_match_table2(self):
        assert 0.25 < STANDARD_MIX.write_ratio < 0.45   # paper: 35.84%
        assert 0.02 < READ_INTENSIVE_MIX.write_ratio < 0.08  # paper: 4.89%

    def test_shardable_is_standard_without_remote(self):
        assert SHARDABLE_MIX.weights == STANDARD_MIX.weights
        assert not SHARDABLE_MIX.remote_accesses

    def test_pick_distribution(self):
        rng = random.Random(1)
        picks = [STANDARD_MIX.pick(rng) for _ in range(5000)]
        assert 0.40 < picks.count("new_order") / 5000 < 0.50
        assert 0.38 < picks.count("payment") / 5000 < 0.48

    def test_metric_designations(self):
        assert STANDARD_MIX.throughput_metric == "tpmc"
        assert READ_INTENSIVE_MIX.throughput_metric == "tps"


class TestPopulation:
    def test_cardinalities(self, loaded):
        _cluster, _catalog, _cm, counts = loaded
        scale = SCALE
        assert counts["warehouse"] == scale.warehouses
        assert counts["district"] == scale.warehouses * scale.districts_per_warehouse
        assert counts["customer"] == (
            scale.warehouses * scale.districts_per_warehouse
            * scale.customers_per_district
        )
        assert counts["stock"] == scale.warehouses * scale.items
        assert counts["item"] == scale.items
        assert counts["orders"] == (
            scale.warehouses * scale.districts_per_warehouse
            * scale.initial_orders_per_district
        )
        assert counts["neworder"] < counts["orders"]

    def test_district_next_o_id(self, env):
        district = read_row(env, "district", (1, 1))
        assert district["d_next_o_id"] == SCALE.initial_orders_per_district + 1

    def test_customer_names_findable(self, env):
        cluster, catalog, cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        table = Table(catalog.table("customer"), txn, IndexManager())
        index = next(i for i in table.schema.indexes if i.name == "customer_name")
        name = last_name(0)
        matches = run_direct(table.lookup(index, (1, 1, name)), dispatcher)
        run_direct(txn.commit(), dispatcher)
        assert matches  # BARBARBAR always exists in a populated district


class TestNewOrder:
    def test_happy_path_effects(self, env):
        gen = ParamGenerator(SCALE, seed=21)
        params = gen.new_order()
        params.rollback = False
        district_before = read_row(env, "district", (params.w_id, params.d_id))
        result = run_txn(env, new_order, params)

        district_after = read_row(env, "district", (params.w_id, params.d_id))
        assert district_after["d_next_o_id"] == district_before["d_next_o_id"] + 1
        assert result["o_id"] == district_before["d_next_o_id"]
        assert result["total"] > 0

        order = read_row(env, "orders", (params.w_id, params.d_id, result["o_id"]))
        assert order["o_ol_cnt"] == len(params.items)
        neworder = read_row(
            env, "neworder", (params.w_id, params.d_id, result["o_id"])
        )
        assert neworder is not None
        line = read_row(
            env, "orderline", (params.w_id, params.d_id, result["o_id"], 1)
        )
        assert line["ol_i_id"] == params.items[0][0]

    def test_stock_updated(self, env):
        gen = ParamGenerator(SCALE, seed=22)
        params = gen.new_order()
        params.rollback = False
        i_id, supply_w, quantity = params.items[0]
        stock_before = read_row(env, "stock", (supply_w, i_id))
        run_txn(env, new_order, params)
        stock_after = read_row(env, "stock", (supply_w, i_id))
        assert stock_after["s_order_cnt"] == stock_before["s_order_cnt"] + 1
        assert stock_after["s_ytd"] == stock_before["s_ytd"] + quantity
        expected = stock_before["s_quantity"] - quantity
        if expected < 10:
            expected += 91
        assert stock_after["s_quantity"] == expected

    def test_one_percent_rollback(self, env):
        cluster, catalog, cm, pn, dispatcher = env
        gen = ParamGenerator(SCALE, seed=23)
        params = gen.new_order()
        params.rollback = True
        txn = run_direct(pn.begin(), dispatcher)
        context = TpccContext(catalog, txn, IndexManager())
        context.districts_per_warehouse = SCALE.districts_per_warehouse
        with pytest.raises(TpccRollback):
            run_direct(new_order(context, params), dispatcher)
        run_direct(txn.abort(), dispatcher)
        # nothing persisted
        district = read_row(env, "district", (params.w_id, params.d_id))
        order = read_row(
            env, "orders", (params.w_id, params.d_id, district["d_next_o_id"])
        )
        assert order is None


class TestPayment:
    def test_by_id_updates_balances(self, env):
        gen = ParamGenerator(SCALE, seed=31)
        params = gen.payment()
        params.c_id = 5
        params.c_last = None
        warehouse_before = read_row(env, "warehouse", (params.w_id,))
        customer_before = read_row(
            env, "customer", (params.c_w_id, params.c_d_id, 5)
        )
        run_txn(env, payment, params)
        warehouse_after = read_row(env, "warehouse", (params.w_id,))
        customer_after = read_row(
            env, "customer", (params.c_w_id, params.c_d_id, 5)
        )
        assert warehouse_after["w_ytd"] == pytest.approx(
            warehouse_before["w_ytd"] + params.amount
        )
        assert customer_after["c_balance"] == pytest.approx(
            customer_before["c_balance"] - params.amount
        )
        assert customer_after["c_payment_cnt"] == (
            customer_before["c_payment_cnt"] + 1
        )

    def test_by_name_selects_middle_customer(self, env):
        gen = ParamGenerator(SCALE, seed=32)
        params = gen.payment()
        params.c_id = None
        params.c_last = last_name(0)
        result = run_txn(env, payment, params)
        assert result["amount"] == params.amount

    def test_history_row_written(self, env):
        cluster, catalog, cm, pn, dispatcher = env
        gen = ParamGenerator(SCALE, seed=33)
        params = gen.payment()
        params.c_id = 1
        params.c_last = None
        run_txn(env, payment, params)
        txn = run_direct(pn.begin(), dispatcher)
        table = Table(catalog.table("history"), txn, IndexManager())
        rows = run_direct(table.scan(), dispatcher)
        run_direct(txn.commit(), dispatcher)
        assert any(
            row[catalog.table("history").position("h_amount")] == params.amount
            for _rid, row in rows
        )


class TestOrderStatus:
    def test_returns_latest_order(self, env):
        gen = ParamGenerator(SCALE, seed=41)
        no_params = gen.new_order()
        no_params.rollback = False
        created = run_txn(env, new_order, no_params)
        params = gen.order_status()
        params.w_id, params.d_id = no_params.w_id, no_params.d_id
        params.c_id, params.c_last = no_params.c_id, None
        result = run_txn(env, order_status, params)
        assert result["order"]["o_id"] == created["o_id"]
        assert len(result["lines"]) == len(no_params.items)


class TestDelivery:
    def test_delivers_oldest_neworder(self, env):
        cluster, catalog, cm, pn, dispatcher = env
        params = ParamGenerator(SCALE, seed=51).delivery()
        # find the oldest undelivered order of district 1 beforehand
        txn = run_direct(pn.begin(), dispatcher)
        no_table = Table(catalog.table("neworder"), txn, IndexManager())
        oldest = run_direct(
            no_table.index_range(
                no_table.schema.primary_index,
                (params.w_id, 1), (params.w_id, 2), limit=1,
            ),
            dispatcher,
        )
        run_direct(txn.commit(), dispatcher)
        assert oldest, "population must leave undelivered orders"
        o_id = oldest[0][1][2]

        result = run_txn(env, delivery, params)
        assert result["delivered"] >= 1
        assert read_row(env, "neworder", (params.w_id, 1, o_id)) is None
        order = read_row(env, "orders", (params.w_id, 1, o_id))
        assert order["o_carrier_id"] == params.carrier_id
        line = read_row(env, "orderline", (params.w_id, 1, o_id, 1))
        assert line["ol_delivery_d"] is not None


class TestStockLevel:
    def test_counts_low_stock(self, env):
        params = ParamGenerator(SCALE, seed=61).stock_level()
        result = run_txn(env, stock_level, params)
        assert 0 <= result["low_stock"] <= result["distinct_items"]

    def test_read_only(self, env):
        cluster, catalog, cm, pn, dispatcher = env
        params = ParamGenerator(SCALE, seed=62).stock_level()
        txn = run_direct(pn.begin(), dispatcher)
        context = TpccContext(catalog, txn, IndexManager())
        context.districts_per_warehouse = SCALE.districts_per_warehouse
        run_direct(stock_level(context, params), dispatcher)
        assert txn.write_set == ()
        run_direct(txn.commit(), dispatcher)


class TestDispatchTable:
    def test_all_five_registered(self):
        assert set(TRANSACTIONS) == {
            "new_order", "payment", "order_status", "delivery", "stock_level"
        }
