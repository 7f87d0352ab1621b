"""The experiment functions behind every figure and table of Section 6.

Each function runs the corresponding sweep and returns a list of row
dicts the benchmarks print in the paper's format.  Sizing is controlled
by a profile:

* ``smoke``  -- tiny, seconds per figure; used by the test suite;
* ``quick``  -- the default; scaled-down database and short simulated
  windows, enough for every qualitative shape to appear;
* ``full``   -- closer to the paper's 200-warehouse setup; slow.

Select via the ``REPRO_BENCH_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    BaselineConfig,
    FoundationDBLike,
    MySqlClusterLike,
    VoltDBLike,
)
from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.bench.simcluster import SimulatedTell
from repro.workloads.tpcc.params import TpccScale


@dataclass(frozen=True)
class BenchProfile:
    name: str
    warehouses: int
    customers_per_district: int
    initial_orders_per_district: int
    items: int
    duration_us: float
    warmup_us: float
    pn_counts: Sequence[int]
    threads_per_pn: int
    baseline_duration_us: float

    def scale(self) -> TpccScale:
        return TpccScale(
            warehouses=self.warehouses,
            districts_per_warehouse=10,
            customers_per_district=self.customers_per_district,
            initial_orders_per_district=self.initial_orders_per_district,
            items=self.items,
        )


PROFILES = {
    "smoke": BenchProfile(
        name="smoke", warehouses=8, customers_per_district=30,
        initial_orders_per_district=20, items=400,
        duration_us=80_000.0, warmup_us=20_000.0,
        pn_counts=(1, 4), threads_per_pn=8,
        baseline_duration_us=500_000.0,
    ),
    "quick": BenchProfile(
        name="quick", warehouses=64, customers_per_district=60,
        initial_orders_per_district=20, items=1000,
        duration_us=250_000.0, warmup_us=50_000.0,
        pn_counts=(1, 4, 8), threads_per_pn=16,
        baseline_duration_us=2_000_000.0,
    ),
    "full": BenchProfile(
        name="full", warehouses=200, customers_per_district=100,
        initial_orders_per_district=30, items=2000,
        duration_us=1_000_000.0, warmup_us=200_000.0,
        pn_counts=(1, 2, 3, 4, 5, 6, 7, 8), threads_per_pn=24,
        baseline_duration_us=5_000_000.0,
    ),
}


def bench_profile() -> BenchProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(PROFILES)
        raise ValueError(f"unknown REPRO_BENCH_PROFILE {name!r} (known: {known})")


def tell_config(profile: BenchProfile, **overrides: Any) -> TellConfig:
    defaults = dict(
        processing_nodes=4,
        storage_nodes=7,
        threads_per_pn=profile.threads_per_pn,
        scale=profile.scale(),
        duration_us=profile.duration_us,
        warmup_us=profile.warmup_us,
    )
    defaults.update(overrides)
    return TellConfig(**defaults)


def run_tell(config: TellConfig) -> TxnMetrics:
    deployment = SimulatedTell(config)
    deployment.load()
    return deployment.run()


# ---------------------------------------------------------------------------
# Table 4: response-time decomposition into transaction phases
# ---------------------------------------------------------------------------


def run_phase_breakdown(profile: Optional[BenchProfile] = None,
                        **overrides: Any) -> dict:
    """One TPC-C run with observability forced on; returns the
    ``repro-obs/2`` snapshot whose ``repro_txn_us`` /
    ``repro_txn_phase_us`` histograms :func:`repro.obs.phase_table_rows`
    renders into the paper's Table-4 shape (snapshot / read / write /
    commit per transaction type).  Deterministic for a fixed seed."""
    profile = profile or bench_profile()
    config = tell_config(profile, observability=True, **overrides)
    metrics = run_tell(config)
    snapshot = metrics.obs_snapshot
    assert snapshot is not None  # observability=True guarantees one
    return snapshot


# ---------------------------------------------------------------------------
# Figures 5/6: processing scale-out at RF1/RF2/RF3
# ---------------------------------------------------------------------------


def run_scaleout_processing(
    mix: str, profile: Optional[BenchProfile] = None
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    rows: List[Dict[str, Any]] = []
    for replication_factor in (1, 2, 3):
        sns = max(7, replication_factor)
        for pns in profile.pn_counts:
            metrics = run_tell(tell_config(
                profile,
                processing_nodes=pns,
                storage_nodes=sns,
                replication_factor=replication_factor,
                mix=mix,
            ))
            rows.append({
                "rf": replication_factor,
                "pns": pns,
                "tpmc": metrics.tpmc,
                "tps": metrics.tps,
                "abort_rate": metrics.abort_rate,
                "latency_ms": metrics.latency().mean_ms,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 7: storage scale-out (3/5/7 SNs, RF3)
# ---------------------------------------------------------------------------


def run_scaleout_storage(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    rows: List[Dict[str, Any]] = []
    for sns in (3, 5, 7):
        for pns in profile.pn_counts:
            metrics = run_tell(tell_config(
                profile,
                processing_nodes=pns,
                storage_nodes=sns,
                replication_factor=3,
            ))
            rows.append({
                "sns": sns,
                "pns": pns,
                "tpmc": metrics.tpmc,
                "abort_rate": metrics.abort_rate,
            })
    return rows


# ---------------------------------------------------------------------------
# Table 3: commit-manager scale-out
# ---------------------------------------------------------------------------


def run_commit_managers(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    pns = max(profile.pn_counts)
    rows: List[Dict[str, Any]] = []
    for cms in (1, 2, 4):
        metrics = run_tell(tell_config(
            profile,
            processing_nodes=pns,
            commit_managers=cms,
        ))
        rows.append({
            "commit_managers": cms,
            "tpmc": metrics.tpmc,
            "abort_rate": metrics.abort_rate,
        })
    return rows


# ---------------------------------------------------------------------------
# Figures 8/9 and Table 4: system comparison
# ---------------------------------------------------------------------------

#: Tell deployments roughly matching the paper's total-core points
#: (small / medium / large clusters).
TELL_COMPARISON_SHAPES = [
    {"processing_nodes": 1, "storage_nodes": 3, "commit_managers": 2},
    {"processing_nodes": 4, "storage_nodes": 5, "commit_managers": 2},
    {"processing_nodes": 8, "storage_nodes": 7, "commit_managers": 2},
]
BASELINE_NODE_COUNTS = [3, 7, 11]


def run_system_comparison(
    mix: str,
    replication_factors: Sequence[int] = (3,),
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    """Tell vs VoltDB-like vs MySQL-Cluster-like vs FoundationDB-like."""
    profile = profile or bench_profile()
    rows: List[Dict[str, Any]] = []
    for rf in replication_factors:
        for shape in TELL_COMPARISON_SHAPES:
            config = tell_config(profile, replication_factor=rf, mix=mix,
                                 **shape)
            metrics = run_tell(config)
            rows.append({
                "system": "tell",
                "rf": rf,
                "cores": config.total_cores,
                "tpmc": metrics.tpmc,
                "latency_ms": metrics.latency().mean_ms,
                "latency_std_ms": metrics.latency().std_ms,
            })
        for nodes in BASELINE_NODE_COUNTS:
            for engine_cls, terminals_per_node in (
                (VoltDBLike, 40),
                (MySqlClusterLike, 24),
                (FoundationDBLike, 12),
            ):
                if engine_cls is FoundationDBLike and mix == "shardable":
                    continue  # the paper only runs FDB on the standard mix
                config = BaselineConfig(
                    nodes=nodes,
                    scale=profile.scale(),
                    mix=mix,
                    replication_factor=rf,
                    terminals=terminals_per_node * nodes,
                    duration_us=profile.baseline_duration_us,
                    warmup_us=profile.baseline_duration_us * 0.15,
                )
                metrics = engine_cls(config).run()
                rows.append({
                    "system": engine_cls.name,
                    "rf": rf,
                    "cores": config.total_cores,
                    "tpmc": metrics.tpmc,
                    "latency_ms": metrics.latency().mean_ms,
                    "latency_std_ms": metrics.latency().std_ms,
                })
    return rows


# ---------------------------------------------------------------------------
# Figure 10 / Table 5: network technology
# ---------------------------------------------------------------------------


def run_network_comparison(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    rows: List[Dict[str, Any]] = []
    for network in ("infiniband", "ethernet-10g"):
        for pns in profile.pn_counts:
            metrics = run_tell(tell_config(
                profile, processing_nodes=pns, network=network,
            ))
            latency = metrics.latency()
            rows.append({
                "network": network,
                "pns": pns,
                "tpmc": metrics.tpmc,
                "latency_ms": latency.mean_ms,
                "latency_std_ms": latency.std_ms,
                "tp99_ms": latency.p99_us / 1000.0,
                "tp999_ms": latency.p999_us / 1000.0,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 11: buffering strategies
# ---------------------------------------------------------------------------


def run_buffering_strategies(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    rows: List[Dict[str, Any]] = []
    for strategy in ("tb", "sb", "sbvs10", "sbvs1000"):
        for pns in profile.pn_counts:
            deployment = SimulatedTell(tell_config(
                profile, processing_nodes=pns, buffering=strategy,
            ))
            deployment.load()
            metrics = deployment.run()
            hit_ratios = [
                pn.buffers.stats.hit_ratio
                for pn, _pool, _cm, _idx in deployment._pn_handles
            ]
            rows.append({
                "strategy": strategy,
                "pns": pns,
                "tpmc": metrics.tpmc,
                "hit_ratio": sum(hit_ratios) / len(hit_ratios),
            })
    return rows


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------


def run_ablation_batching(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    pns = max(profile.pn_counts)
    rows: List[Dict[str, Any]] = []
    for batching in (True, False):
        deployment = SimulatedTell(tell_config(
            profile, processing_nodes=pns, batching=batching,
        ))
        deployment.load()
        metrics = deployment.run()
        rows.append({
            "batching": batching,
            "tpmc": metrics.tpmc,
            "messages_per_txn": (
                deployment.fabric.stats.messages
                / max(1, metrics.total_finished)
            ),
            "latency_ms": metrics.latency().mean_ms,
        })
    return rows


def run_ablation_sync_interval(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    pns = max(profile.pn_counts)
    rows: List[Dict[str, Any]] = []
    for interval_us in (100.0, 1000.0, 10_000.0):
        metrics = run_tell(tell_config(
            profile,
            processing_nodes=pns,
            commit_managers=2,
            cm_sync_interval_us=interval_us,
        ))
        rows.append({
            "sync_interval_ms": interval_us / 1000.0,
            "tpmc": metrics.tpmc,
            "abort_rate": metrics.abort_rate,
        })
    return rows


def run_ablation_tid_ranges(
    profile: Optional[BenchProfile] = None,
) -> List[Dict[str, Any]]:
    profile = profile or bench_profile()
    pns = max(profile.pn_counts)
    rows: List[Dict[str, Any]] = []
    for range_size in (1, 16, 256):
        metrics = run_tell(tell_config(
            profile, processing_nodes=pns, tid_range_size=range_size,
        ))
        rows.append({
            "tid_range": range_size,
            "tpmc": metrics.tpmc,
            "abort_rate": metrics.abort_rate,
            "latency_ms": metrics.latency().mean_ms,
        })
    return rows
