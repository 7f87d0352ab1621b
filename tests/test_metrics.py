"""Tests for benchmark metrics and network profiles."""

import pytest

from repro.errors import InvalidState
from repro.net.profiles import (
    ETHERNET_10G,
    INFINIBAND_QDR,
    profile_by_name,
)
from repro.runtime.metrics import LatencyStats, TxnMetrics


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats([])
        assert stats.count == 0
        assert stats.mean_us == 0.0

    def test_mean_std(self):
        stats = LatencyStats([10.0, 20.0, 30.0])
        assert stats.mean_us == 20.0
        assert stats.std_us == pytest.approx(8.1649, rel=1e-3)

    def test_percentiles(self):
        stats = LatencyStats(list(range(1, 1001)))
        assert stats.p50_us == pytest.approx(500, abs=2)
        assert stats.p99_us == pytest.approx(990, abs=2)
        assert stats.p999_us == pytest.approx(999, abs=2)
        assert stats.max_us == 1000

    def test_percentiles_interpolate_exactly(self):
        # rank = fraction * (n - 1); value interpolated between the two
        # closest order statistics (numpy's default definition).
        stats = LatencyStats([1.0, 2.0])
        assert stats.p50_us == pytest.approx(1.5)
        assert stats.p99_us == pytest.approx(1.99)
        assert stats.p999_us == pytest.approx(1.999)

        stats = LatencyStats(list(range(1, 102)))  # 1..101, n=101
        assert stats.p50_us == pytest.approx(51.0)
        assert stats.p99_us == pytest.approx(100.0)
        assert stats.p999_us == pytest.approx(100.9)

        stats = LatencyStats([10.0, 20.0, 30.0, 40.0])  # n=4
        assert stats.p50_us == pytest.approx(25.0)
        assert stats.p99_us == pytest.approx(39.7)

    def test_percentiles_single_sample(self):
        stats = LatencyStats([42.0])
        assert stats.p50_us == 42.0
        assert stats.p99_us == 42.0
        assert stats.p999_us == 42.0

    def test_ms_views(self):
        stats = LatencyStats([5000.0])
        assert stats.mean_ms == 5.0


class TestTxnMetrics:
    def test_tpmc_counts_only_committed_new_orders(self):
        metrics = TxnMetrics()
        for _ in range(10):
            metrics.record("new_order", "committed", 100.0)
        for _ in range(5):
            metrics.record("new_order", "conflict", 100.0)
        metrics.record("payment", "committed", 50.0)
        metrics.measured_time_us = 60e6  # one minute
        assert metrics.tpmc == 10.0
        assert metrics.tps == pytest.approx(11 / 60.0)

    def test_abort_rate_over_all_finished(self):
        metrics = TxnMetrics()
        metrics.record("payment", "committed", 1.0)
        metrics.record("payment", "conflict", 1.0)
        metrics.record("new_order", "user_abort", 1.0)
        assert metrics.abort_rate == pytest.approx(1 / 3)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            TxnMetrics().record("x", "exploded", 1.0)

    def test_latency_per_type_and_merged(self):
        metrics = TxnMetrics()
        metrics.record("a", "committed", 10.0)
        metrics.record("b", "committed", 30.0)
        assert metrics.latency("a").mean_us == 10.0
        assert metrics.latency().mean_us == 20.0

    def test_merge(self):
        a = TxnMetrics()
        a.record("x", "committed", 1.0)
        b = TxnMetrics()
        b.record("x", "committed", 3.0)
        b.record("x", "conflict", 0.0)
        a.merge(b)
        assert a.committed["x"] == 2
        assert a.conflicts["x"] == 1
        assert a.latency("x").count == 2

    def test_zero_time_throughput(self):
        assert TxnMetrics().tpmc == 0.0
        assert TxnMetrics().tps == 0.0

    def test_summary_is_readable(self):
        metrics = TxnMetrics()
        metrics.record("new_order", "committed", 1000.0)
        metrics.measured_time_us = 1e6
        summary = metrics.summary()
        assert "tpmc" in summary and "abort_rate" in summary


class TestNetworkProfiles:
    def test_lookup_by_name(self):
        assert profile_by_name("infiniband") is INFINIBAND_QDR
        assert profile_by_name("InfiniBand") is INFINIBAND_QDR
        assert profile_by_name("ethernet-10g") is ETHERNET_10G

    def test_unknown_profile(self):
        with pytest.raises(InvalidState):
            profile_by_name("carrier-pigeon")

    def test_infiniband_much_faster_for_small_messages(self):
        assert ETHERNET_10G.round_trip() > 6 * INFINIBAND_QDR.round_trip()

    def test_bandwidth_term_grows_with_size(self):
        small = INFINIBAND_QDR.one_way(64)
        large = INFINIBAND_QDR.one_way(1_000_000)
        assert large > small + 200

    def test_ethernet_charges_cpu_per_message(self):
        assert ETHERNET_10G.client_cpu_per_msg_us > 0
        assert INFINIBAND_QDR.client_cpu_per_msg_us < 1.0
