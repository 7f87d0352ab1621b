"""Tests for the baseline engines (Figures 8/9 comparators)."""

from repro.baselines import (
    BaselineConfig,
    FoundationDBLike,
    MySqlClusterLike,
    VoltDBLike,
    txn_work,
)
from repro.workloads.tpcc.params import ParamGenerator, TpccScale
from tests.conftest import finished, shared_run

SCALE = TpccScale.small(8)
#: Engines need warehouses >= partitions for placement to spread
#: (3-9 nodes x 6 sites = up to 54 partitions).
WIDE_SCALE = TpccScale.small(80)


def config(**overrides):
    defaults = dict(
        nodes=3,
        scale=WIDE_SCALE,
        mix="standard",
        terminals=48,
        duration_us=1_000_000.0,
        warmup_us=100_000.0,
        seed=3,
    )
    defaults.update(overrides)
    return BaselineConfig(**defaults)


class TestTxnWork:
    def test_new_order_profile(self):
        gen = ParamGenerator(SCALE, seed=1)
        params = gen.new_order()
        work = txn_work("new_order", params, SCALE)
        n = len(params.items)
        assert work.rows_read == 3 + 2 * n
        assert work.rows_written == 2 + 3 * n
        assert params.w_id in work.warehouses

    def test_remote_payment_is_distributed(self):
        gen = ParamGenerator(SCALE, seed=1)
        params = gen.payment()
        params.c_w_id = params.w_id + 1
        work = txn_work("payment", params, SCALE)
        assert work.is_distributed

    def test_read_only_transactions(self):
        gen = ParamGenerator(SCALE, seed=1)
        for name in ("order_status", "stock_level"):
            work = txn_work(name, getattr(gen, name)(), SCALE)
            assert work.rows_written == 0
            assert not work.is_distributed

    def test_delivery_scales_with_districts(self):
        gen = ParamGenerator(SCALE, seed=1)
        work = txn_work("delivery", gen.delivery(), SCALE)
        assert work.rows_written == 13 * SCALE.districts_per_warehouse


# The points that more than one test reads, each run once.

@shared_run()
def voltdb_standard():
    return finished(VoltDBLike(config(terminals=120)))


@shared_run()
def voltdb_shardable():
    return finished(VoltDBLike(config(mix="shardable", terminals=120)))


@shared_run()
def voltdb_nine_nodes():
    return finished(VoltDBLike(config(nodes=9, terminals=360)))


@shared_run()
def mysql_standard():
    return finished(MySqlClusterLike(config(terminals=96)))


@shared_run()
def mysql_nine_nodes():
    return finished(MySqlClusterLike(config(nodes=9, terminals=288)))


@shared_run()
def fdb_three_nodes():
    return finished(FoundationDBLike(
        config(terminals=36, duration_us=3_000_000.0)))


class TestVoltDBLike:
    def test_shardable_scales_with_nodes(self):
        small = VoltDBLike(config(mix="shardable", terminals=60)).run()
        large = VoltDBLike(
            config(mix="shardable", nodes=9, terminals=180)
        ).run()
        assert large.tpmc > small.tpmc * 2

    def test_standard_mix_degrades_with_nodes(self, voltdb_standard,
                                              voltdb_nine_nodes):
        """The paper's key observation: cross-partition transactions make
        VoltDB slower as nodes are added."""
        assert voltdb_nine_nodes.metrics.tpmc \
            < voltdb_standard.metrics.tpmc

    def test_shardable_beats_standard(self, voltdb_standard,
                                      voltdb_shardable):
        assert voltdb_shardable.metrics.tpmc \
            > voltdb_standard.metrics.tpmc * 3

    def test_replication_cost_moderate(self, voltdb_shardable):
        rf1 = VoltDBLike(
            config(mix="shardable", replication_factor=1, terminals=120)
        ).run()
        rf3 = voltdb_shardable.metrics
        assert rf3.tpmc < rf1.tpmc
        assert rf3.tpmc > rf1.tpmc * 0.7  # ~-13% in the paper

    def test_standard_latency_much_worse_than_shardable(
            self, voltdb_standard, voltdb_shardable):
        assert voltdb_standard.metrics.latency().mean_us \
            > 3 * voltdb_shardable.metrics.latency().mean_us


class TestMySqlClusterLike:
    def test_throughput_nearly_flat_with_nodes(self, mysql_standard,
                                               mysql_nine_nodes):
        small = mysql_standard.metrics
        large = mysql_nine_nodes.metrics
        assert large.tpmc < small.tpmc * 3.5  # grows, but far from linear

    def test_shardable_barely_helps(self, mysql_standard):
        """Paper: MySQL Cluster is only 1-2% faster on the shardable mix."""
        shardable = MySqlClusterLike(
            config(mix="shardable", terminals=96)
        ).run()
        assert shardable.tpmc < mysql_standard.metrics.tpmc * 1.4

    def test_beats_voltdb_on_standard_mix_at_scale(self, voltdb_nine_nodes,
                                                   mysql_nine_nodes):
        assert mysql_nine_nodes.metrics.tpmc \
            > voltdb_nine_nodes.metrics.tpmc


class TestFoundationDBLike:
    def test_scales_with_nodes(self, fdb_three_nodes):
        large = FoundationDBLike(
            config(nodes=9, terminals=108, duration_us=3_000_000.0)
        ).run()
        assert large.tpmc > fdb_three_nodes.metrics.tpmc * 1.8

    def test_orders_of_magnitude_below_others(self, fdb_three_nodes,
                                              mysql_standard):
        assert fdb_three_nodes.metrics.tpmc * 5 \
            < mysql_standard.metrics.tpmc

    def test_latency_in_hundreds_of_ms(self, fdb_three_nodes):
        assert 50_000 < fdb_three_nodes.metrics.latency().mean_us \
            < 1_500_000
class TestBaselineFraming:
    def test_one_percent_rollbacks_counted(self):
        metrics = VoltDBLike(
            config(terminals=60, duration_us=3_000_000.0)
        ).run()
        user_aborts = sum(metrics.user_aborts.values())
        assert user_aborts > 0
        assert metrics.committed.get("new_order", 0) > user_aborts

    def test_deterministic(self):
        a = VoltDBLike(config(terminals=24)).run()
        b = VoltDBLike(config(terminals=24)).run()
        assert a.total_committed == b.total_committed
