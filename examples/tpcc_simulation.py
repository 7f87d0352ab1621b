"""Run TPC-C on a simulated Tell cluster and watch it scale out.

Builds two deployments -- 2 and 6 processing nodes over the same storage
configuration -- loads the TPC-C database, runs the standard mix for a
slice of simulated time, and prints throughput, abort rate, and latency
the way the paper's Figure 5 reports them.  The second part shows the
read-intensive mix of Table 2 on the same cluster shape.

Run with:  python examples/tpcc_simulation.py
"""

from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale


def run(config: TellConfig, label: str) -> None:
    deployment = SimulatedTell(config)
    counts = deployment.load()
    metrics = deployment.run()
    latency = metrics.latency()
    metric_name = "TpmC" if config.mix == "standard" else "Tps"
    value = metrics.tpmc if config.mix == "standard" else metrics.tps
    print(f"{label}:")
    print(f"  database: {sum(counts.values()):,} rows "
          f"({config.scale.warehouses} warehouses)")
    print(f"  {metric_name}: {value:,.0f}   abort rate: "
          f"{metrics.abort_rate * 100:.2f}%   "
          f"latency: {latency.mean_ms:.2f} ms "
          f"(p99 {latency.p99_us / 1000:.2f} ms)")
    per_type = ", ".join(
        f"{name}={count}" for name, count in sorted(metrics.committed.items())
    )
    print(f"  committed: {per_type}")
    print(f"  storage messages: {deployment.fabric.stats.messages:,} "
          f"({deployment.fabric.stats.store_ops:,} ops, batching on)\n")


def main() -> None:
    scale = TpccScale(
        warehouses=24,
        districts_per_warehouse=10,
        customers_per_district=60,
        initial_orders_per_district=20,
        items=1000,
    )
    base = dict(
        storage_nodes=5,
        threads_per_pn=12,
        scale=scale,
        duration_us=150_000.0,   # 150 simulated milliseconds
        warmup_us=30_000.0,
    )

    print("=== TPC-C standard mix (write-intensive) ===\n")
    run(TellConfig(processing_nodes=2, **base), "2 processing nodes")
    run(TellConfig(processing_nodes=6, **base),
        "6 processing nodes (same data, no re-partitioning)")

    print("=== TPC-C read-intensive mix (Table 2) ===\n")
    run(TellConfig(processing_nodes=4, mix="read-intensive", **base),
        "4 processing nodes, read-intensive")

    print("=== Same cluster, 10GbE instead of InfiniBand ===\n")
    run(TellConfig(processing_nodes=4, network="ethernet-10g", **base),
        "4 processing nodes, kernel-TCP Ethernet")


if __name__ == "__main__":
    main()
