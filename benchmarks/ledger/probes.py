"""Layer probes: direct timed calls into one layer's public functions.

``sim_kernel``, ``snapshot`` and ``record`` repeat the loops and sizing of
``repro/bench/perfsuite.py`` so their numbers line up with
``BENCH_perf.json``; they are copies, not imports, so that a change to the
program cannot change what the benchmark measures.  ``store``, ``index``
and ``sql_parse`` cover the layers perfsuite has no microbenchmark for.
Each probe returns ``(work, elapsed_s, checksum)``; :func:`run_probes`
keeps the best of five and insists the checksum repeats.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro import effects
from repro.core.record import Version, VersionedRecord
from repro.core.snapshot import CommittedSet, SnapshotDescriptor
from repro.dispatch import Dispatcher
from repro.index.btree import DistributedBTree
from repro.sim.kernel import Delay, Simulator
from repro.sql.parser import parse
from repro.store.cluster import StorageCluster

from workloads import SQL_STATEMENTS

Probe = Callable[[int], Tuple[int, float, int]]


def probe_sim_kernel(events: int) -> Tuple[int, float, int]:
    """Event loop: Delay-driven processes plus a ``call_at`` storm."""
    sim = Simulator()
    n_procs = 50
    per_proc = events // (2 * n_procs)

    def ticker(step: float):
        pause = Delay(step)
        for _ in range(per_proc):
            yield pause

    for i in range(n_procs):
        sim.spawn(ticker(1.0 + 0.01 * i), name=f"tick-{i}")
    fired = [0]

    def callback() -> None:
        fired[0] += 1

    for i in range(events // 2):
        sim.call_at(float(i % 1000), callback)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return n_procs * per_proc + fired[0], elapsed, sim.events_processed


def probe_snapshot(iterations: int) -> Tuple[int, float, int]:
    """Snapshot algebra: contains / with_completed / union / mark_completed."""
    started = time.perf_counter()
    ops = 0
    committed = CommittedSet()
    for tid in range(1, iterations + 1):
        committed.mark_completed(tid + 2)
        committed.mark_completed(tid)
        ops += 2
        if tid % 64 == 0:
            committed.mark_completed(tid + 1)
            ops += 1
    snap = SnapshotDescriptor(100, 0b1011001)
    other = SnapshotDescriptor(104, 0b1101)
    sink = 0
    for tid in range(95, 95 + 64):
        for _ in range(iterations // 2_000):
            sink += tid in snap
            ops += 1
    for _ in range(iterations // 4):
        merged = snap.union(other)
        grown = merged.with_completed(merged.base + 5)
        sink += grown.base
        ops += 2
    return ops, time.perf_counter() - started, sink


def probe_record(iterations: int) -> Tuple[int, float, int]:
    """Version-set writes (with_version) and MVCC reads (latest_visible)."""
    started = time.perf_counter()
    ops = 0
    base = VersionedRecord.initial(1, ("row", 0))
    records: List[VersionedRecord] = []
    for i in range(iterations // 10):
        record = base
        for tid in (7, 3, 12, 9, 20):
            record = record.with_version(
                Version(tid + i % 3 * 100, ("row", tid)))
            ops += 1
        records.append(record)
    snapshots = [
        SnapshotDescriptor(5, 0b101),
        SnapshotDescriptor(0, 0),
        SnapshotDescriptor(10_000, 0),
    ]
    sink = 0
    for _ in range(10):
        for record in records:
            for snapshot in snapshots:
                version = record.latest_visible(snapshot)
                sink += 0 if version is None else version.tid
                ops += 1
    return ops, time.perf_counter() - started, sink


def probe_store(keys: int) -> Tuple[int, float, int]:
    """put / get / LL-SC (half stale) through ``StorageCluster.execute``."""
    cluster = StorageCluster(n_nodes=3)
    execute = cluster.execute
    started = time.perf_counter()
    for key in range(keys):
        execute(effects.Put("probe", key, key))
    sink = 0
    for key in range(keys):
        value, version = execute(effects.Get("probe", key))
        sink += value
        # Every other conditional write carries a stale version and must
        # lose, like a conflicting LL/SC.
        won = execute(effects.PutIfVersion(
            "probe", key, value + 1, version + key % 2))
        sink += bool(won)
    return 3 * keys, time.perf_counter() - started, sink


def probe_index(lookups: int) -> Tuple[int, float, int]:
    """Point lookups on a bulk-built tree through the direct runner."""
    cluster = StorageCluster(n_nodes=3)
    router = Dispatcher(cluster)
    tree = DistributedBTree(index_id=1)
    n_keys = 20_000
    effects.run_direct(
        tree.bulk_build([((key,), key) for key in range(n_keys)]), router)
    started = time.perf_counter()
    sink = 0
    for i in range(lookups):
        rids = effects.run_direct(
            tree.lookup((i * 7_919 % n_keys,)), router)
        sink += rids[0]
    return lookups, time.perf_counter() - started, sink


def probe_sql_parse(rounds: int) -> Tuple[int, float, int]:
    """Parse the six sql_mixed statement texts."""
    texts = [text for _weight, text in SQL_STATEMENTS.values()]
    started = time.perf_counter()
    sink = 0
    for _ in range(rounds):
        for text in texts:
            sink += len(type(parse(text)).__name__)
    return rounds * len(texts), time.perf_counter() - started, sink


#: metric name -> (probe, full size, smoke size)
PROBES: Dict[str, Tuple[Probe, int, int]] = {
    "sim.probe_events_per_s": (probe_sim_kernel, 200_000, 20_000),
    "core.probe_snapshot_ops_per_s": (probe_snapshot, 60_000, 6_000),
    "core.probe_record_ops_per_s": (probe_record, 30_000, 3_000),
    "store.probe_ops_per_s": (probe_store, 20_000, 2_000),
    "index.probe_lookups_per_s": (probe_index, 5_000, 500),
    "sql.probe_parse_stmts_per_s": (probe_sql_parse, 300, 30),
}

_BEST_OF = 5


def run_probes(smoke: bool = False) -> Dict[str, float]:
    """Best-of-five rate of every probe; raises if a checksum wavers."""
    rates: Dict[str, float] = {}
    for name, (probe, full, small) in PROBES.items():
        size = small if smoke else full
        best = 0.0
        checks = set()
        for _ in range(_BEST_OF):
            work, elapsed, checksum = probe(size)
            best = max(best, work / elapsed)
            checks.add((work, checksum))
        if len(checks) != 1:
            raise RuntimeError(f"probe {name}: checksum not repeatable")
        rates[name] = best
    return rates


if __name__ == "__main__":
    for metric, rate in run_probes().items():
        print(f"{metric:32s} {rate:>14,.0f} 1/s")
