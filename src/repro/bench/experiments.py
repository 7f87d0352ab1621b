"""Every experiment of the paper's Section 6, declared once.

An :class:`Experiment` is a sweep (``run(profile)`` returns row dicts),
the columns the one renderer prints, and a ``check`` asserting the
qualitative result the paper reports.  :data:`EXPERIMENTS` names every
figure, table, ablation, extension and suite; ``python -m repro.bench``,
``benchmarks/test_shapes.py`` and DESIGN.md's experiment index all read
it.  Sizing is a profile, selected by ``REPRO_BENCH_PROFILE``:

* ``smoke``  -- tiny, seconds per figure; the CI ``shapes`` job;
* ``quick``  -- the default; scaled-down database and short simulated
  windows, enough for every qualitative shape to appear;
* ``full``   -- closer to the paper's 200-warehouse setup; slow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.baselines import (
    BaselineConfig,
    FoundationDBLike,
    MySqlClusterLike,
    VoltDBLike,
)
from repro.bench.config import TellConfig
from repro.bench.elastic import PHASES, check_elastic, cycle, run_elastic
from repro.bench.isolation import check_isolation, run_isolation
from repro.bench.metrics import TxnMetrics
from repro.bench.scale import check_scale, run_scale
from repro.bench.simcluster import SimulatedTell, run_tell_experiment
from repro.bench.tables import TABLE1_HEADERS, TABLE1_ROWS
from repro.bench.ycsb_sim import SimulatedYcsb
from repro.workloads.tpcc.params import TpccScale

Row = Dict[str, Any]


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


#: ``baseline_duration_us`` must exceed the slowest baseline's response
#: time at the profile's scale (FDB-like and VoltDB-like take 0.4-0.7 s
#: per transaction at 11 nodes and 8 warehouses), or that engine finishes
#: nothing in the window.
PROFILES = {
    "smoke": BenchProfile(
        name="smoke", warehouses=8, customers_per_district=30,
        initial_orders_per_district=20, items=400,
        duration_us=80_000.0, warmup_us=20_000.0,
        pn_counts=(1, 4), threads_per_pn=8,
        baseline_duration_us=2_000_000.0,
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


@dataclass(frozen=True)
class Experiment:
    """One experiment: its sweep, its table, and the shape it must show.

    ``columns`` maps each printed header to a row key or to a function of
    the row; ``check`` raises ``AssertionError`` when the rows lost the
    paper's qualitative result."""

    name: str
    title: str
    run: Callable[[BenchProfile], List[Row]]
    columns: Mapping[str, Union[str, Callable[[Row], Any]]]
    check: Callable[[List[Row]], None]

    def cells(self, rows: List[Row]) -> List[List[Any]]:
        return [
            [row[column] if isinstance(column, str) else column(row)
             for column in self.columns.values()]
            for row in rows
        ]


def _pct(key: str) -> Callable[[Row], str]:
    return lambda row: f"{row[key] * 100:.2f}%"


def _mean_std(prefix: str) -> Callable[[Row], str]:
    return lambda row: (f"{row[prefix + '_ms']:.1f} ± "
                        f"{row[prefix + '_std_ms']:.1f}")


def _weight(txn_name: str) -> Callable[[Row], str]:
    return lambda row: f"{row.get(txn_name, 0):.0f}%"


def _phase(name: str, key: str) -> Callable[[Row], Any]:
    return lambda row: row["phases"][name][key]


def _series(rows: List[Row], key: str,
            order: str = "processing_nodes") -> Dict[Any, List[Row]]:
    """Rows grouped by ``key``, each group ascending in ``order``."""
    groups: Dict[Any, List[Row]] = {}
    for row in sorted(rows, key=lambda row: row[order]):
        groups.setdefault(row[key], []).append(row)
    return groups


def _peaks(rows: List[Row], key: Union[str, Tuple[str, ...]],
           value: str = "tpmc") -> Dict[Any, float]:
    """The highest ``value`` per group; ``key`` names one row key or several."""
    peaks: Dict[Any, float] = {}
    for row in rows:
        group = row[key] if isinstance(key, str) else tuple(row[k] for k in key)
        peaks[group] = max(peaks.get(group, 0.0), row[value])
    return peaks


# ---------------------------------------------------------------------------
# running one point
# ---------------------------------------------------------------------------


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


def _finished(engine: str, metrics: TxnMetrics, window_us: float) -> TxnMetrics:
    """A point that finished nothing measured nothing: refuse to turn it
    into a row of zeros."""
    if metrics.total_finished == 0:
        raise RuntimeError(
            f"{engine} finished no transaction in its {window_us / 1e6:g} s "
            f"window; the window is shorter than the engine's response time"
        )
    return metrics


def _row(metrics: TxnMetrics, **point: Any) -> Row:
    latency = metrics.latency()
    return {
        **point,
        "tpmc": metrics.tpmc,
        "tps": metrics.tps,
        "abort_rate": metrics.abort_rate,
        "latency_ms": latency.mean_ms,
        "latency_us": latency.mean_us,
        "latency_std_ms": latency.std_ms,
        "tp99_ms": latency.p99_us / 1000.0,
        "tp999_ms": latency.p999_us / 1000.0,
    }


def _tell(profile: BenchProfile, **point: Any) -> Row:
    """Build, load and run one Tell deployment at the profile's sizing
    with ``point`` overriding the defaults.  The row is the point's own
    parameters plus everything any table prints about a run."""
    config = tell_config(profile, **point)
    deployment = SimulatedTell(config)
    deployment.load()
    metrics = _finished("tell", deployment.run(), config.duration_us)
    hit_ratios = [pn.buffers.stats.hit_ratio
                  for pn, _pool, _cm, _idx in deployment._pn_handles]
    return _row(
        metrics, **point, system="tell", cores=config.total_cores,
        hit_ratio=sum(hit_ratios) / len(hit_ratios),
        messages_per_txn=(deployment.fabric.stats.messages
                          / metrics.total_finished),
    )


def run_phase_breakdown(profile: Optional[BenchProfile] = None,
                        **overrides: Any) -> dict:
    """One TPC-C run with observability forced on; returns the
    ``repro-obs/2`` snapshot whose ``repro_txn_us`` /
    ``repro_txn_phase_us`` histograms :func:`repro.obs.phase_table_rows`
    renders into the per-phase table of ``repro-obs smoke`` (snapshot /
    read / write / commit per transaction type).  Deterministic for a
    fixed seed."""
    config = tell_config(profile or bench_profile(), observability=True,
                         **overrides)
    snapshot = run_tell_experiment(config).obs_snapshot
    assert snapshot is not None  # observability=True guarantees one
    return snapshot


# ---------------------------------------------------------------------------
# Tables 1 and 2: static content, checked against the code
# ---------------------------------------------------------------------------


def run_table1(profile: BenchProfile) -> List[Row]:
    return [dict(zip(TABLE1_HEADERS, row)) for row in TABLE1_ROWS]


def check_table1(rows: List[Row]) -> None:
    """Table 1: Tell combines all five design principles.  The matrix is
    static; what is checkable is that this reproduction's row is earned --
    complex queries and ACID transactions run, and a second instance sees
    the shared data with no setup."""
    from repro.api import Database

    assert all(cell == "yes" for cell in list(rows[0].values())[1:]), rows[0]
    db = Database(storage_nodes=3, replication_factor=2)
    session = db.session()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, v INT)")
    session.execute(
        "INSERT INTO t VALUES (1, 'a', 1), (2, 'a', 2), (3, 'b', 3)"
    )
    aggregate = session.query(
        "SELECT grp, SUM(v) AS s FROM t GROUP BY grp ORDER BY grp"
    )
    assert aggregate == [{"grp": "a", "s": 3}, {"grp": "b", "s": 3}], aggregate
    shared = db.session().query("SELECT COUNT(*) AS n FROM t")
    assert shared == [{"n": 3}], shared


def run_table2(profile: BenchProfile) -> List[Row]:
    from repro.workloads.tpcc.mixes import READ_INTENSIVE_MIX, STANDARD_MIX

    return [
        {"mix": mix.name, "write_ratio": mix.write_ratio,
         "metric": mix.throughput_metric.upper(), **dict(mix.weights)}
        for mix in (STANDARD_MIX, READ_INTENSIVE_MIX)
    ]


def check_table2(rows: List[Row]) -> None:
    """Table 2: the standard mix is write-intensive and reported in TpmC
    (paper: 35.84% writes), the read-intensive mix is not and is reported
    in Tps (paper: 4.89%)."""
    standard, read_intensive = rows
    assert standard["write_ratio"] > 0.20, standard
    assert read_intensive["write_ratio"] < 0.10, read_intensive
    assert (standard["metric"], read_intensive["metric"]) == ("TPMC", "TPS")


# ---------------------------------------------------------------------------
# Figures 5/6: processing scale-out at RF1/RF2/RF3
# ---------------------------------------------------------------------------


def run_scaleout_processing(profile: BenchProfile, mix: str) -> List[Row]:
    return [_tell(profile, replication_factor=rf, processing_nodes=pns, mix=mix)
            for rf in (1, 2, 3) for pns in profile.pn_counts]


def check_fig5(rows: List[Row]) -> None:
    """Figure 5: throughput grows with PNs (sub-linearly: contention on
    the warehouse table); the abort rate rises with PNs (paper: 2.91% at
    1 PN -> 14.72% at 8); synchronous replication costs heavily under
    writes (paper: RF3 ~ -63% vs RF1 at 8 PNs), RF2 in between."""
    for rf, series in _series(rows, "replication_factor").items():
        low, high = series[0], series[-1]
        assert high["tpmc"] > low["tpmc"] * 1.5, (
            f"RF{rf}: no scale-out ({low['tpmc']:.0f} -> {high['tpmc']:.0f})")
        assert high["abort_rate"] > low["abort_rate"], (
            f"RF{rf}: abort rate does not grow with contention")
    top = _peaks(rows, "replication_factor")
    assert top[3] < top[1] * 0.75, f"RF3 should cost >25% under writes: {top}"
    assert top[3] <= top[2] <= top[1], f"RF2 should sit in between: {top}"


def check_fig6(rows: List[Row]) -> None:
    """Figure 6: Tps scales with PNs; reads are served by the master copy
    only, so replication hurts far less than under writes (paper: RF3 is
    -25.7% vs RF1 here, against -63% in Figure 5); abort rates stay low."""
    for rf, series in _series(rows, "replication_factor").items():
        assert series[-1]["tps"] > series[0]["tps"] * 1.5, f"RF{rf}: no scale-out"
    top = _peaks(rows, "replication_factor", "tps")
    assert top[3] <= top[1], f"replication still costs something: {top}"
    assert top[3] > top[1] * 0.55, (
        f"read-intensive RF3 penalty should be mild (paper: -25.7%): {top}")
    assert all(row["abort_rate"] < 0.12 for row in rows), (
        "hardly any writes to conflict on, yet aborts >= 12%")


# ---------------------------------------------------------------------------
# Figure 7: storage scale-out (3/5/7 SNs, RF3)
# ---------------------------------------------------------------------------


def run_scaleout_storage(profile: BenchProfile) -> List[Row]:
    return [_tell(profile, storage_nodes=sns, processing_nodes=pns,
                  replication_factor=3)
            for sns in (3, 5, 7) for pns in profile.pn_counts]


def check_fig7(rows: List[Row]) -> None:
    """Figure 7: the storage layer is not the bottleneck -- throughput
    differs only minimally between 3, 5 and 7 SNs (size storage for
    memory, not CPU) while every configuration still scales with PNs."""
    peak = _peaks(rows, "storage_nodes")
    assert max(peak.values()) < min(peak.values()) * 1.5, peak
    for sns, series in _series(rows, "storage_nodes").items():
        assert series[-1]["tpmc"] > series[0]["tpmc"] * 1.5, (
            f"{sns} SNs: no scale-out with PNs")


# ---------------------------------------------------------------------------
# Table 3: commit-manager scale-out
# ---------------------------------------------------------------------------


def run_commit_managers(profile: BenchProfile) -> List[Row]:
    return [_tell(profile, commit_managers=cms,
                  processing_nodes=max(profile.pn_counts))
            for cms in (1, 2, 4)]


def check_table3(rows: List[Row]) -> None:
    """Table 3: the commit manager is not a bottleneck -- throughput and
    abort rate stay essentially flat for 1 / 2 / 4 managers, although
    their snapshots are synchronised through the store with a 1 ms delay."""
    tpmcs = [row["tpmc"] for row in rows]
    aborts = [row["abort_rate"] for row in rows]
    assert max(tpmcs) < min(tpmcs) * 1.35, f"TpmC not flat: {tpmcs}"
    assert max(aborts) - min(aborts) < 0.12, f"abort rate not flat: {aborts}"


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
#: The baseline engines and their terminals per node.
BASELINES = {VoltDBLike: 40, MySqlClusterLike: 24, FoundationDBLike: 12}


def run_baseline(profile: BenchProfile, engine_cls: type, nodes: int,
                 mix: str, replication_factor: int) -> Row:
    config = BaselineConfig(
        nodes=nodes,
        scale=profile.scale(),
        mix=mix,
        replication_factor=replication_factor,
        terminals=BASELINES[engine_cls] * nodes,
        duration_us=profile.baseline_duration_us,
        warmup_us=profile.baseline_duration_us * 0.15,
    )
    metrics = _finished(f"{engine_cls.name} at {nodes} nodes",
                        engine_cls(config).run(), config.duration_us)
    return _row(metrics, system=engine_cls.name, cores=config.total_cores,
                replication_factor=replication_factor)


@lru_cache(maxsize=None)
def run_system_comparison(
    profile: BenchProfile, mix: str, replication_factors: Tuple[int, ...],
) -> List[Row]:
    """Tell vs VoltDB-like vs MySQL-Cluster-like vs FoundationDB-like.
    Memoised: Table 4 is a view of the sweeps Figures 8 and 9 print, and
    each runs once per process."""
    rows: List[Row] = []
    for rf in replication_factors:
        rows += [_tell(profile, replication_factor=rf, mix=mix, **shape)
                 for shape in TELL_COMPARISON_SHAPES]
        # The paper only runs FDB on the standard mix.
        rows += [run_baseline(profile, engine_cls, nodes, mix, rf)
                 for nodes in BASELINE_NODE_COUNTS for engine_cls in BASELINES
                 if mix == "standard" or engine_cls is not FoundationDBLike]
    return rows


def run_standard_comparison(profile: BenchProfile) -> List[Row]:
    return run_system_comparison(profile, "standard", (3,))


def run_shardable_comparison(profile: BenchProfile) -> List[Row]:
    return run_system_comparison(profile, "shardable", (1, 3))


def check_fig8(rows: List[Row]) -> None:
    """Figure 8 (standard mix, RF3): Tell scales with cores and tops every
    other system; VoltDB *degrades* as nodes are added (cross-partition
    transactions); MySQL Cluster beats VoltDB but stays far below Tell;
    FoundationDB scales yet sits a factor ~30 below Tell (Section 6.5)."""
    peak = _peaks(rows, "system")
    assert peak["tell"] > peak["mysql-cluster"] > peak["voltdb"], peak
    assert peak["tell"] > 10 * peak["foundationdb"], (
        f"FDB should be an order of magnitude below Tell: {peak}")
    by_system = _series(rows, "system", order="cores")
    tell, voltdb, fdb = (by_system[name] for name in
                         ("tell", "voltdb", "foundationdb"))
    assert tell[-1]["tpmc"] > tell[0]["tpmc"] * 1.5, "Tell: no scale-out"
    assert voltdb[-1]["tpmc"] < voltdb[0]["tpmc"], (
        "VoltDB should hit the MP-transaction wall")
    assert fdb[-1]["tpmc"] > fdb[0]["tpmc"], "FDB should scale"


def check_fig9(rows: List[Row]) -> None:
    """Figure 9 (shardable mix, the partitioned systems' home turf):
    VoltDB fulfils its scalability promise and wins (paper: 1.54M TpmC at
    RF1 vs Tell's 1.36M), Tell stays in the same ballpark, MySQL Cluster
    is barely faster than on the standard mix; RF3 costs both."""
    peak = _peaks(rows, ("system", "replication_factor"))
    assert peak["voltdb", 1] > peak["tell", 1], (
        f"VoltDB should win on its home turf: {peak}")
    assert peak["tell", 1] > peak["voltdb", 1] * 0.3, (
        f"Tell should stay in the same ballpark: {peak}")
    assert peak["voltdb", 1] > peak["mysql-cluster", 1], peak
    assert peak["voltdb", 3] < peak["voltdb", 1], peak
    assert peak["tell", 3] < peak["tell", 1], peak


def run_response_times(profile: BenchProfile) -> List[Row]:
    """Table 4: the smallest and largest cluster of each system, both
    mixes at RF3, out of the Figure 8 and Figure 9 sweeps."""
    rows: List[Row] = []
    for mix, sweep in (("standard", run_standard_comparison(profile)),
                       ("shardable", run_shardable_comparison(profile))):
        by_system = _series(
            [row for row in sweep if row["replication_factor"] == 3],
            "system", order="cores")
        for system, series in sorted(by_system.items()):
            small, large = series[0], series[-1]
            rows.append({
                "mix": mix, "system": system,
                "small_ms": small["latency_ms"],
                "small_std_ms": small["latency_std_ms"],
                "large_ms": large["latency_ms"],
                "large_std_ms": large["latency_std_ms"],
            })
    return rows


def check_table4(rows: List[Row]) -> None:
    """Table 4: Tell's mean latency is the lowest of all systems on the
    standard mix; VoltDB's standard-mix latency explodes into hundreds of
    milliseconds (MP queueing) while its shardable latency is fine."""
    large = {(row["mix"], row["system"]): row["large_ms"] for row in rows}
    for other in ("voltdb", "foundationdb", "mysql-cluster"):
        assert large["standard", "tell"] < large["standard", other], (
            f"Tell should have the lowest latency, {other} is lower: {large}")
    assert large["standard", "voltdb"] > 3 * large["shardable", "voltdb"], (
        f"VoltDB standard should be far above its shardable latency: {large}")


# ---------------------------------------------------------------------------
# Figure 10 / Table 5: network technology
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def run_network_comparison(profile: BenchProfile) -> List[Row]:
    """Memoised: Figure 10 and Table 5 are the same sweep."""
    return [_tell(profile, network=network, processing_nodes=pns)
            for network in ("infiniband", "ethernet-10g")
            for pns in profile.pn_counts]


def check_fig10(rows: List[Row]) -> None:
    """Figure 10: with Tell's synchronous processing model, InfiniBand
    delivers several times the throughput of kernel-TCP 10 Gb Ethernet at
    every PN count (paper: >6x)."""
    by_network = _series(rows, "network")
    for fast, slow in zip(by_network["infiniband"], by_network["ethernet-10g"]):
        assert fast["tpmc"] > 2.5 * slow["tpmc"], (
            f"at {fast['processing_nodes']} PNs InfiniBand should win by a "
            f"large factor")


def check_table5(rows: List[Row]) -> None:
    """Table 5: mean response time mirrors the throughput difference
    (Ethernet is slower at every PN count) and the tail percentiles stay
    bounded -- the network is not congested."""
    by_network = _series(rows, "network")
    for fast, slow in zip(by_network["infiniband"], by_network["ethernet-10g"]):
        assert slow["latency_ms"] > fast["latency_ms"], (
            f"at {fast['processing_nodes']} PNs Ethernet latency should be "
            f"higher")
    for network, series in by_network.items():
        top = series[-1]
        assert top["tp999_ms"] < 40 * top["latency_ms"], (
            f"{network}: tail not bounded")


# ---------------------------------------------------------------------------
# Figure 11: buffering strategies
# ---------------------------------------------------------------------------


def run_buffering_strategies(profile: BenchProfile) -> List[Row]:
    return [_tell(profile, buffering=strategy, processing_nodes=pns)
            for strategy in ("tb", "sb", "sbvs10", "sbvs1000")
            for pns in profile.pn_counts]


def check_fig11(rows: List[Row]) -> None:
    """Figure 11 (a key negative result): for TPC-C over fast RDMA the
    plain transaction buffer (TB) wins -- shared-buffer overhead outweighs
    its benefit (SB's hit ratio is ~1.4%), and version-set synchronisation
    (SBVS) reaches a much higher hit ratio (~37% at unit size 1000) but
    pays extra update requests that cancel the savings."""
    peak = _peaks(rows, "buffering")
    hits = _peaks(rows, "buffering", "hit_ratio")
    for other in ("sb", "sbvs10", "sbvs1000"):
        assert peak["tb"] >= peak[other] * 0.95, (
            f"TB should win or tie, but {other} got {peak[other]:.0f} "
            f"vs tb {peak['tb']:.0f}")
    assert hits["sb"] < 0.25, f"SB's hit ratio should be tiny: {hits}"
    assert hits["sbvs1000"] > hits["sb"], hits


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md section 5)
# ---------------------------------------------------------------------------

#: name -> (the TellConfig knob swept, its settings, what else is fixed).
ABLATIONS = {
    "batching": ("batching", (True, False), {}),
    "sync-interval": ("cm_sync_interval_us", (100.0, 1000.0, 10_000.0),
                      {"commit_managers": 2}),
    "tid-range": ("tid_range_size", (1, 16, 256), {}),
    "interleaved-tids": ("interleaved_tids", (False, True),
                         {"commit_managers": 2}),
}


def run_ablations(profile: BenchProfile, names: Sequence[str]) -> List[Row]:
    """Sweep one knob at a time at the profile's largest PN count."""
    rows: List[Row] = []
    for name in names:
        knob, settings, fixed = ABLATIONS[name]
        for setting in settings:
            row = _tell(profile, processing_nodes=max(profile.pn_counts),
                        **{knob: setting}, **fixed)
            rows.append({**row, "ablation": name,
                         "setting": f"{knob}={setting}"})
    return rows


def check_ablations(rows: List[Row]) -> None:
    """Section 5.1 credits aggressive batching for Tell's low request
    counts: without it, substantially more messages per transaction and
    lower throughput.  Section 4.2 says synchronising snapshots every
    ~1 ms "did not noticeably affect the overall abort rate" (staleness
    never *reduces* conflicts), and that tid ranges amortise the counter
    round trip: range 1 must not be faster than range 256."""
    at = {row["setting"]: row for row in rows}
    on, off = at["batching=True"], at["batching=False"]
    assert off["messages_per_txn"] > on["messages_per_txn"] * 1.5, (on, off)
    assert on["tpmc"] > off["tpmc"], "batching should raise throughput"
    fast, default, slow = (at[f"cm_sync_interval_us={interval_us}"]
                           for interval_us in (100.0, 1000.0, 10_000.0))
    assert default["tpmc"] > fast["tpmc"] * 0.7, "1 ms sync costs throughput"
    assert slow["abort_rate"] >= fast["abort_rate"] - 0.05, (fast, slow)
    assert (at["tid_range_size=256"]["tpmc"]
            >= at["tid_range_size=1"]["tpmc"] * 0.9), (
        "tid range 1 should not beat range 256")


def check_interleaved_tids(rows: List[Row]) -> None:
    """Section 4.2 picks continuous tid ranges "because it is simple to
    implement" and lists interleaved tids as near-future work; this repo
    implements both.  Interleaving removes the shared-counter round trips
    and must stay competitive: no large throughput regression."""
    continuous, interleaved = rows
    assert interleaved["tpmc"] > continuous["tpmc"] * 0.7, (
        f"interleaved {interleaved['tpmc']:.0f} vs "
        f"continuous {continuous['tpmc']:.0f}")


# ---------------------------------------------------------------------------
# Extensions: selection push-down (Section 5.2), YCSB scaling (Section 2.1)
# ---------------------------------------------------------------------------


def run_pushdown(profile: BenchProfile) -> List[Row]:
    """A selective scan over the live TPC-C orderline table with and
    without storage-side filtering: rows and bytes shipped, scan time."""
    from repro.sql.table import Table

    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=5, scale=profile.scale(),
    ))
    deployment.load()
    pn, pool, cm_index, indexes = deployment._make_pn(0)
    orderline = deployment.catalog.table("orderline")
    amount = orderline.position("ol_amount")

    def analytic(mode: str, pushdown: bool) -> Row:
        def script():  # noqa: ANN202
            txn = yield from pn.begin()
            table = Table(orderline, txn, indexes)
            scan_filter = (
                table.make_filter([("ol_amount", ">=", 9500.0)])
                if pushdown else None
            )
            started = deployment.sim.now
            rows = yield from table.scan(scan_filter)
            elapsed = deployment.sim.now - started
            yield from txn.commit()
            return rows, elapsed

        before = deployment.fabric.stats.bytes_sent
        shipped, elapsed = deployment.sim.run_until_complete(
            deployment.sim.spawn(deployment._drive(pool, cm_index, script()))
        )
        return {
            "mode": mode, "rows_shipped": len(shipped),
            "matching": sum(1 for _rid, row in shipped
                            if row[amount] >= 9500.0),
            "bytes": deployment.fabric.stats.bytes_sent - before,
            "scan_us": elapsed,
        }

    return [analytic("ship-everything", False), analytic("push-down", True)]


def check_pushdown(rows: List[Row]) -> None:
    """Section 5.2 proposes executing selection inside the storage nodes
    so analytical queries over live OLTP data ship result rows instead of
    whole tables (future work in the paper, implemented here): the same
    result for well under half the rows and bytes, and no slower."""
    full, pushed = rows
    assert pushed["rows_shipped"] == pushed["matching"] == full["matching"], (
        "pushdown changed the result")
    assert pushed["rows_shipped"] < full["rows_shipped"] * 0.5, (full, pushed)
    assert pushed["bytes"] < full["bytes"] * 0.5, (full, pushed)
    assert pushed["scan_us"] <= full["scan_us"], (full, pushed)


def run_ycsb_scaling(profile: BenchProfile) -> List[Row]:
    rows: List[Row] = []
    for mix in ("A", "C"):
        for pns in profile.pn_counts:
            config = TellConfig(
                processing_nodes=pns,
                storage_nodes=5,
                threads_per_pn=profile.threads_per_pn,
                mix=mix,
                duration_us=profile.duration_us / 2,
                warmup_us=profile.warmup_us / 2,
            )
            deployment = SimulatedYcsb(config, record_count=20_000)
            deployment.load()
            metrics = _finished("tell", deployment.run(), config.duration_us)
            rows.append(_row(metrics, mix=f"YCSB-{mix}", processing_nodes=pns))
    return rows


def check_ycsb(rows: List[Row]) -> None:
    """Section 2.1: shared data scales with "no assumptions on the
    workload".  TPC-C is partition-friendly by construction; zipfian YCSB
    keys have no locality at all, and throughput still scales with PNs on
    the update-heavy (A) and read-only (C) mixes; C never conflicts."""
    for mix, series in _series(rows, "mix").items():
        assert series[-1]["tps"] > series[0]["tps"] * 2.0, f"{mix} flat"
    assert all(row["abort_rate"] == 0.0 for row in rows
               if row["mix"] == "YCSB-C"), "the read-only mix aborted"


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


_PNS = {"PNs": "processing_nodes"}
_ABORTS = {"Abort rate": _pct("abort_rate")}
_ABLATION_COLUMNS = {"Ablation": "ablation", "Setting": "setting",
                     "TpmC": "tpmc", **_ABORTS, "Latency (ms)": "latency_ms",
                     "Messages/txn": "messages_per_txn"}


EXPERIMENTS: Dict[str, Experiment] = {experiment.name: experiment for experiment in (
    Experiment(
        "table1", "Table 1: comparison of selected databases",
        run_table1, {header: header for header in TABLE1_HEADERS},
        check_table1),
    Experiment(
        "table2", "Table 2: TPC-C workload mixes",
        run_table2,
        {"Mix": "mix", "Write ratio": _pct("write_ratio"), "Metric": "metric",
         "New-Order": _weight("new_order"), "Payment": _weight("payment"),
         "Delivery": _weight("delivery"),
         "Order Status": _weight("order_status"),
         "Stock Level": _weight("stock_level")},
        check_table2),
    Experiment(
        "fig5", "Figure 5: scale-out processing (write-intensive mix)",
        partial(run_scaleout_processing, mix="standard"),
        {"RF": "replication_factor", **_PNS, "TpmC": "tpmc", **_ABORTS,
         "Latency (ms)": "latency_ms"},
        check_fig5),
    Experiment(
        "fig6", "Figure 6: scale-out processing (read-intensive mix)",
        partial(run_scaleout_processing, mix="read-intensive"),
        {"RF": "replication_factor", **_PNS, "Tps": "tps", **_ABORTS,
         "Latency (ms)": "latency_ms"},
        check_fig6),
    Experiment(
        "fig7", "Figure 7: scale-out storage (standard mix, RF3)",
        run_scaleout_storage,
        {"SNs": "storage_nodes", **_PNS, "TpmC": "tpmc", **_ABORTS},
        check_fig7),
    Experiment(
        "table3", "Table 3: commit managers (standard mix, RF1)",
        run_commit_managers,
        {"Commit managers": "commit_managers", "TpmC": "tpmc", **_ABORTS},
        check_table3),
    Experiment(
        "fig8", "Figure 8: system comparison (standard mix, RF3)",
        run_standard_comparison,
        {"System": "system", "Cores": "cores", "TpmC": "tpmc",
         "Latency (ms)": "latency_ms"},
        check_fig8),
    Experiment(
        "fig9", "Figure 9: system comparison (shardable mix, RF1 and RF3)",
        run_shardable_comparison,
        {"System": "system", "RF": "replication_factor", "Cores": "cores",
         "TpmC": "tpmc", "Latency (ms)": "latency_ms"},
        check_fig9),
    Experiment(
        "table4", "Table 4: TPC-C response time at RF3 (mean ± sigma)",
        run_response_times,
        {"Mix": "mix", "System": "system",
         "Small cluster (ms)": _mean_std("small"),
         "Large cluster (ms)": _mean_std("large")},
        check_table4),
    Experiment(
        "fig10", "Figure 10: InfiniBand vs 10 Gb Ethernet (standard mix, RF1)",
        run_network_comparison,
        {"Network": "network", **_PNS, "TpmC": "tpmc",
         "Latency (ms)": "latency_ms", "TP99": "tp99_ms",
         "TP999": "tp999_ms"},
        check_fig10),
    Experiment(
        "table5", "Table 5: response time per network technology",
        run_network_comparison,
        {"Network": "network", **_PNS, "Latency (ms)": _mean_std("latency"),
         "TP99": "tp99_ms", "TP999": "tp999_ms"},
        check_table5),
    Experiment(
        "fig11", "Figure 11: buffering strategies (standard mix, RF1)",
        run_buffering_strategies,
        {"Strategy": "buffering", **_PNS, "TpmC": "tpmc",
         "Hit ratio": _pct("hit_ratio")},
        check_fig11),
    Experiment(
        "ablations", "Ablations: batching, CM sync interval, tid range size",
        partial(run_ablations,
                names=("batching", "sync-interval", "tid-range")),
        _ABLATION_COLUMNS, check_ablations),
    Experiment(
        "interleaved-tids",
        "Ablation: continuous tid ranges vs interleaved tids (2 CMs)",
        partial(run_ablations, names=("interleaved-tids",)),
        _ABLATION_COLUMNS, check_interleaved_tids),
    Experiment(
        "pushdown", "Extension: selection push-down for analytic scans",
        run_pushdown,
        {"Mode": "mode", "Rows shipped": "rows_shipped",
         "Bytes shipped": "bytes", "Scan time (us)": "scan_us"},
        check_pushdown),
    Experiment(
        "ycsb", "Extension: YCSB zipfian scaling (no partitionable structure)",
        run_ycsb_scaling,
        {"Mix": "mix", **_PNS, "Tps": "tps", **_ABORTS,
         "Latency (us)": "latency_us"},
        check_ycsb),
    Experiment(
        "scale", "Suite: deployment sizes beyond the paper's 12 servers",
        run_scale,
        {"Point": "label", "Nodes": "nodes", "PNs": "pns", "SNs": "sns",
         "Warehouses": "warehouses", "Host events/s": "events_per_s",
         "Host txns/s": "txns_per_s", "TpmC": "tpmc", **_ABORTS,
         "Wall (s)": "wall_s", "Digest": lambda row: row["digest"][:16]},
        check_scale),
    Experiment(
        "isolation",
        "Suite: isolation protocol trade-off (skew-heavy workload)",
        run_isolation,
        {"Mode": "mode", "Committed": "committed", "Aborted": "aborted",
         **_ABORTS, "Txns/s": lambda row: f"{row['txns_per_s']:,.1f}",
         "Anomalies": "anomalies", "Validations": "validations"},
        check_isolation),
    Experiment(
        "elastic",
        "Suite: throughput through a live SN double/halve cycle",
        run_elastic,
        {"Point": "label", "Cycle": cycle,
         "Moves": lambda row: row["migration"]["partitions_moved"],
         "Redirects": "redirects",
         **{f"{name} txns/s": _phase(name, "txns_per_s") for name in PHASES},
         **{f"{name} p99 (ms)": _phase(name, "p99_ms") for name in PHASES},
         "Digest": lambda row: row["digest"][:16]},
        check_elastic),
)}
