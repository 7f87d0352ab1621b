"""Metric registry, layer map, counter harvest and profile folding.

Layers are the repo's packages.  Three kinds of per-layer number exist,
all taken from outside the program:

* ``exact`` -- deterministic counts read from the always-on public
  counters after an untraced run; with a fixed seed they repeat
  bit-for-bit, so two commits compare exactly;
* ``host``  -- wall-clock numbers: ``*.self_share`` from one cProfile'd
  run folded by source file, ``*.probe_*`` from direct timed calls;
* ``ratio`` -- wall of a tooling-on run over its tooling-off twin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Tuple

if TYPE_CHECKING:  # compare.py reads the registry without the program
    from repro.bench.metrics import TxnMetrics
    from repro.bench.simcluster import SimulatedTell


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float   # share of the parent's median it may worsen by
    clock: str     # host | sim


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str      # exact | host | ratio
    moves: str     # the end-to-end metric -> workloads it should move


#: ``setup_s`` has the widest bound: it is the shortest, noisiest timing.
#: Simulated metrics repeat exactly for a fixed seed; their bounds cover
#: the seed-to-seed spread the acceptance procedure measures.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host"),
    EndToEnd("host_txn_per_s", "1/s", "higher", 0.25, "host"),
    EndToEnd("host_peak_rss_mb", "MiB", "lower", 0.10, "host"),
    EndToEnd("sim_commit_per_s", "1/s", "higher", 0.25, "sim"),
    EndToEnd("sim_p50_ms", "ms", "lower", 0.25, "sim"),
    EndToEnd("sim_p99_ms", "ms", "lower", 0.10, "sim"),
    EndToEnd("sim_commit_ratio", "ratio", "higher", 0.10, "sim"),
)

SQL_CLASSES = ("point", "byname", "range_agg", "update", "join", "analytic")

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("sim.events_per_txn", "count", "lower", "exact",
             "host_txn_per_s -> all, most on ycsb_a_zipf"),
    PerLayer("sim.host_events_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> ycsb_a_zipf, tpcc_scaleout64; not sql_mixed"),
    PerLayer("sim.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> ycsb_a_zipf, tpcc_scaleout64; not sql_mixed"),
    PerLayer("sim.probe_events_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> ycsb_a_zipf, tpcc_scaleout64"),
    PerLayer("fabric.messages_per_txn", "count", "lower", "exact",
             "sim_p50_ms, sim_commit_per_s -> tpcc_scaleout64, ycsb_a_zipf"),
    PerLayer("fabric.bytes_per_txn", "B", "lower", "exact",
             "sim_p50_ms, sim_commit_per_s -> tpcc_scaleout64, ycsb_a_zipf"),
    PerLayer("fabric.store_ops_per_message", "count", "higher", "exact",
             "sim_p50_ms, sim_commit_per_s -> tpcc_scaleout64, ycsb_a_zipf"),
    PerLayer("fabric.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> ycsb_a_zipf, tpcc_scaleout64"),
    PerLayer("store.reads_per_txn", "count", "lower", "exact",
             "sim_p99_ms -> tpcc_scaleout64"),
    PerLayer("store.writes_per_txn", "count", "lower", "exact",
             "sim_p99_ms -> tpcc_scaleout64"),
    PerLayer("store.scans_per_txn", "count", "lower", "exact",
             "sim_p99_ms -> sql_mixed"),
    PerLayer("store.replica_copies_per_txn", "count", "lower", "exact",
             "sim_p99_ms -> tpcc_scaleout64 (0 on every RF1 workload)"),
    PerLayer("store.bytes_used_mb", "MiB", "lower", "exact",
             "host_peak_rss_mb -> tpcc_scaleout64"),
    PerLayer("store.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> tpcc_scaleout64"),
    PerLayer("store.probe_ops_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> tpcc_scaleout64"),
    PerLayer("core.commit_success_ratio", "ratio", "higher", "exact",
             "sim_commit_ratio, sim_commit_per_s -> tpcc_contended"),
    PerLayer("core.cm_range_refills", "count", "lower", "exact",
             "sim_p50_ms -> ycsb_a_zipf"),
    PerLayer("core.buffer_hit_ratio", "ratio", "higher", "exact",
             "sim_p50_ms -> tpcc_readmostly_sb only (0 under TB)"),
    PerLayer("core.buffer_fetches_per_txn", "count", "lower", "exact",
             "sim_p50_ms -> tpcc_readmostly_sb only"),
    PerLayer("core.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> tpcc_contended, ycsb_a_zipf"),
    PerLayer("core.probe_snapshot_ops_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> tpcc_contended, ycsb_a_zipf"),
    PerLayer("core.probe_record_ops_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> tpcc_contended, ycsb_a_zipf"),
    PerLayer("index.node_fetches_per_txn", "count", "lower", "exact",
             "sim_p50_ms -> tpcc_readmostly_sb, sql_mixed"),
    PerLayer("index.leaf_fetches_per_txn", "count", "lower", "exact",
             "sim_p50_ms -> tpcc_readmostly_sb, sql_mixed"),
    PerLayer("index.cache_hit_ratio", "ratio", "higher", "exact",
             "sim_p50_ms -> tpcc_readmostly_sb, sql_mixed"),
    PerLayer("index.smo_splits", "count", "lower", "exact",
             "sim_commit_ratio -> tpcc_contended"),
    PerLayer("index.smo_retries", "count", "lower", "exact",
             "sim_commit_ratio -> tpcc_contended"),
    PerLayer("index.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> tpcc_readmostly_sb"),
    PerLayer("index.probe_lookups_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> tpcc_readmostly_sb"),
    PerLayer("sql.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> sql_mixed, then tpcc_contended; "
             "not ycsb_a_zipf"),
    PerLayer("sql.probe_parse_stmts_per_s", "1/s", "higher", "host",
             "host_txn_per_s -> sql_mixed"),
    *(PerLayer(f"sql.{name}.sim_p50_us", "us", "lower", "exact",
               "sim_p50_ms, sim_p99_ms -> sql_mixed only (0 elsewhere)")
      for name in SQL_CLASSES),
    PerLayer("workloads.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> the three tpcc_*"),
    PerLayer("workloads.tpmc", "1/min", "higher", "exact",
             "sim_commit_per_s -> the three tpcc_* (0 elsewhere)"),
    PerLayer("dispatch.self_share", "ratio", "lower", "host",
             "host_txn_per_s -> none today (fast path bypasses it)"),
    PerLayer("obs.overhead_ratio", "ratio", "lower", "ratio",
             "none: tooling is off in every workload"),
    PerLayer("san.overhead_ratio", "ratio", "lower", "ratio",
             "none: tooling is off in every workload"),
    PerLayer("other.self_share", "ratio", "lower", "host",
             "drift detector: growth means the layer map is stale"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "ratio",
             "none: end-to-end metrics come from untraced runs"),
)

# ---------------------------------------------------------------------------
# layer map
# ---------------------------------------------------------------------------

LAYERS = ("sim", "fabric", "store", "core", "index", "sql", "workloads",
          "dispatch", "obs", "san", "other")

#: First matching path fragment wins.  The host clock's reference kernel
#: runs inside the profiled region but is not the program: ``unmeasured``
#: time is dropped from the fold.  ``repro/runtime`` is where ROADMAP
#: item 2 will move the fabric; the load-generating drivers (``repro.bench``
#: minus the fabric, and this benchmark's own terminal loop) count as
#: workload code.  Everything unmatched -- repro.effects, repro.errors,
#: repro.elastic, the stdlib -- is ``other``.
_PATH_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("benchmarks/ledger/hostclock.py", "unmeasured"),
    ("repro/sim/", "sim"),
    ("repro/bench/simcluster.py", "fabric"),
    ("repro/net/", "fabric"),
    ("repro/runtime/", "fabric"),
    ("repro/store/", "store"),
    ("repro/core/", "core"),
    ("repro/index/", "index"),
    ("repro/sql/", "sql"),
    ("repro/workloads/", "workloads"),
    ("repro/bench/", "workloads"),
    ("benchmarks/ledger/", "workloads"),
    ("repro/dispatch/", "dispatch"),
    ("repro/obs/", "obs"),
    ("repro/san/", "san"),
)


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in _PATH_LAYERS:
        if fragment in path:
            return layer
    return "other"


# ---------------------------------------------------------------------------
# exact counts from the always-on public counters
# ---------------------------------------------------------------------------


def store_counters(deployment: SimulatedTell) -> Dict[str, int]:
    """Storage-side counters; loading moves them too, so callers take the
    difference across ``run()``."""
    cluster = deployment.cluster
    nodes = cluster.nodes.values()
    return {
        "reads": sum(node.ops_read for node in nodes),
        "writes": sum(node.ops_write for node in nodes),
        "scans": sum(node.ops_scan for node in nodes),
        "replica_copies": cluster.replication_copies,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_metrics(deployment: SimulatedTell, metrics: TxnMetrics, events: int,
                  store_before: Dict[str, int], kind: str) -> Dict[str, float]:
    """Every ``exact`` per-layer metric of one finished run of a workload
    of ``kind`` (TpmC exists for ``tpcc``, statement classes for ``sql``).

    ``*_per_txn`` divides a whole-run counter by transactions *begun*
    (``CommitManager.starts_served``, warm-up included), because the
    always-on counters cover the whole run.
    """
    managers = deployment.commit_managers
    txns = sum(manager.starts_served for manager in managers)
    fabric = deployment.fabric.stats
    store = {
        key: value - store_before[key]
        for key, value in store_counters(deployment).items()
    }
    buffers = [pn.buffers.stats for pn, _p, _c, _i in deployment._pn_handles]
    lookups = sum(stats.lookups for stats in buffers)
    served = sum(stats.hits + stats.vset_valid for stats in buffers)
    trees = [
        tree
        for _pn, _p, _c, indexes in deployment._pn_handles
        for tree in indexes._trees.values()
    ]
    node_fetches = sum(tree.stats.node_fetches for tree in trees)
    cache_hits = sum(tree.cache.hits for tree in trees)
    cache_misses = sum(tree.cache.misses for tree in trees)
    values = {
        "sim.events_per_txn": _ratio(events, txns),
        "fabric.messages_per_txn": _ratio(fabric.messages, txns),
        "fabric.bytes_per_txn": _ratio(fabric.bytes_sent, txns),
        "fabric.store_ops_per_message": _ratio(fabric.store_ops,
                                               fabric.messages),
        "store.reads_per_txn": _ratio(store["reads"], txns),
        "store.writes_per_txn": _ratio(store["writes"], txns),
        "store.scans_per_txn": _ratio(store["scans"], txns),
        "store.replica_copies_per_txn": _ratio(store["replica_copies"], txns),
        "store.bytes_used_mb": deployment.cluster.total_bytes() / 2**20,
        "core.commit_success_ratio": _ratio(metrics.total_committed,
                                            metrics.total_finished),
        "core.cm_range_refills": sum(m.range_refills for m in managers),
        "core.buffer_hit_ratio": _ratio(served, lookups),
        "core.buffer_fetches_per_txn": _ratio(
            sum(stats.fetches for stats in buffers), txns),
        "index.node_fetches_per_txn": _ratio(node_fetches, txns),
        "index.leaf_fetches_per_txn": _ratio(
            sum(tree.stats.leaf_fetches for tree in trees), txns),
        "index.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "index.smo_splits": sum(tree.stats.smo_splits for tree in trees),
        "index.smo_retries": sum(tree.stats.smo_retries for tree in trees),
        "workloads.tpmc": metrics.tpmc if kind == "tpcc" else 0.0,
    }
    for name in SQL_CLASSES:
        values[f"sql.{name}.sim_p50_us"] = (
            metrics.latency(name).p50_us if kind == "sql" else 0.0)
    return values


# ---------------------------------------------------------------------------
# profile folding
# ---------------------------------------------------------------------------

_BUILTIN = "~"   # cProfile's filename for C functions


def fold_profile(stats: Dict[Any, Any]) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.stats`` into per-layer self time and
    layer-boundary edges.

    A C function has no file, so its self time goes to the layer of each
    *caller* (``heappush`` called from the kernel is kernel time).  Every
    generator resume is a profiler "call", so ``calls`` on an edge counts
    boundary crossings, not only first entries.
    """
    self_s = {layer: 0.0 for layer in LAYERS + ("unmeasured",)}
    calls_in = dict.fromkeys(self_s, 0)
    edges: Dict[Tuple[str, str], List[float]] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename == _BUILTIN:
            for (caller_file, _l, _n), (_nc2, _cc2, tt, _ct2) in callers.items():
                owner = "other" if caller_file == _BUILTIN else layer_of(caller_file)
                self_s[owner] += tt
            if not callers:
                self_s["other"] += tottime
            continue
        callee = layer_of(filename)
        self_s[callee] += tottime
        for (caller_file, _l, _n), (nc, _cc2, _tt, ct) in callers.items():
            if caller_file == _BUILTIN:
                continue
            caller = layer_of(caller_file)
            if caller == callee or "unmeasured" in (caller, callee):
                continue
            edge = edges.setdefault((caller, callee), [0, 0.0])
            edge[0] += nc
            edge[1] += ct
            calls_in[callee] += nc
    del self_s["unmeasured"]
    total = sum(self_s.values())
    return {
        "total_self_s": total,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "self_share": _ratio(self_s[layer], total),
                "calls_in": calls_in[layer],
            }
            for layer in LAYERS
        },
        "edges": [
            {"caller_layer": caller, "callee_layer": callee,
             "calls": int(calls), "cumulative_s": cumulative}
            for (caller, callee), (calls, cumulative) in sorted(edges.items())
        ],
    }
