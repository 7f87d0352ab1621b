"""The ``scale`` experiment: deployment sizes beyond the paper's testbed.

The paper's Figure 5-7 sweeps stop at 12 servers; this suite takes the
deterministic simulator to 64-256 node deployments so throughput
curves flatten for *measured* reasons (commit-manager ceiling, replication
fan-out) rather than small-N noise.  This suite runs the full simulated
TPC-C deployment at 16/64/128 nodes plus a 100-warehouse configuration and
records *host* event-loop throughput (``Simulator.events_processed`` per
wall second) next to the simulated txns/s -- the first number tracks how
affordable large experiments are, the second is the science.

Every point reports the run's metrics digest, pinned by the same
determinism contract as ``tpcc_e2e``, the wall seconds of its ``load()``,
and the share of ``run()``'s wall time spent in the cycle collector
(timed by a ``gc.callbacks`` hook around the run; no collector setting
is changed), with the number of collections and the mean generation-0
collection.  A profiler does not show the collector: it charges a
collection to whichever allocation triggered it.

Use via ``python -m repro.bench scale`` (``--profile smoke`` runs only
``smoke16``) or :func:`run_scale_point` directly.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List

from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale

if TYPE_CHECKING:
    from repro.bench.experiments import BenchProfile


def tpcc_point(
    label: str,
    pns: int,
    sns: int,
    *,
    warehouses: int,
    duration_us: float,
    threads_per_pn: int,
    customers_per_district: int,
    commit_managers: int = 1,
    **extra: Any,
) -> Dict[str, Any]:
    """One point of the scale and elastic suites: ``label``, its TPC-C
    deployment (ten districts, 1 000 items, as many initial orders per
    district as customers, a tenth of the run as warm-up, seed 1) under
    ``config``, and any ``extra`` entries the suite reads."""
    scale = TpccScale(warehouses, 10, customers_per_district,
                      customers_per_district, 1000)
    config = TellConfig(
        processing_nodes=pns,
        storage_nodes=sns,
        commit_managers=commit_managers,
        threads_per_pn=threads_per_pn,
        scale=scale,
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=1,
    )
    return {"label": label, "config": config, **extra}


#: The suite, smallest first.  ``smoke16`` is small enough for every PR
#: and digest-pinned, like ``tpcc_e2e``, by ``tests/test_determinism.py``.
#: The node-count points share the paper's 1:3 PN:SN ratio; ``wh100``
#: holds the deployment at 32 nodes and scales the *database* instead
#: (100 warehouses, reduced rows per district so population stays
#: affordable).
def scale_points() -> List[Dict[str, Any]]:
    return [
        tpcc_point("smoke16", 4, 12, warehouses=4, duration_us=30_000.0,
                   threads_per_pn=8, customers_per_district=120),
        tpcc_point("nodes16", 4, 12, warehouses=8, duration_us=100_000.0,
                   threads_per_pn=16, customers_per_district=120),
        tpcc_point("nodes64", 16, 48, warehouses=16, duration_us=60_000.0,
                   threads_per_pn=16, customers_per_district=120),
        tpcc_point("nodes128", 32, 96, warehouses=32, duration_us=40_000.0,
                   threads_per_pn=16, customers_per_district=120),
        tpcc_point("wh100", 8, 24, warehouses=100, duration_us=40_000.0,
                   threads_per_pn=16, customers_per_district=30),
    ]


class CollectorTimer:
    """Wall seconds inside cycle collections, per generation."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += time.perf_counter() - self._started
        self.collections[generation] += 1


@contextmanager
def collector_timed() -> Iterator[CollectorTimer]:
    """Time every cycle collection inside the block."""
    timer = CollectorTimer()
    gc.callbacks.append(timer)
    try:
        yield timer
    finally:
        gc.callbacks.remove(timer)


def run_scale_point(label: str, config: TellConfig) -> Dict[str, Any]:
    """Load + run one deployment; report host and simulated throughput."""
    deployment = SimulatedTell(config)
    started = time.perf_counter()
    deployment.load()
    load_s = time.perf_counter() - started
    with collector_timed() as collector:
        started = time.perf_counter()
        metrics = deployment.run()
        wall = time.perf_counter() - started
    events = deployment.sim.events_processed
    gc_s = sum(collector.seconds)
    return {
        "label": label,
        "nodes": config.processing_nodes + config.storage_nodes,
        "pns": config.processing_nodes,
        "sns": config.storage_nodes,
        "warehouses": config.scale.warehouses,
        "duration_us": config.duration_us,
        "events": events,
        "events_per_s": events / wall,
        "events_per_s_without_gc": events / (wall - gc_s),
        "txns_per_s": metrics.total_finished / wall,
        "tpmc": metrics.tpmc,
        "abort_rate": metrics.abort_rate,
        "load_s": load_s,
        "wall_s": wall,
        "gc_share": gc_s / wall,
        "gc_collections": sum(collector.collections),
        "gc0_ms": (1000.0 * collector.seconds[0]
                   / max(collector.collections[0], 1)),
        "digest": metrics.digest(),
    }


def run_scale(profile: BenchProfile) -> List[Dict[str, Any]]:
    """Every point; the smoke profile stops after ``smoke16``."""
    points = scale_points()
    if profile.name == "smoke":
        points = points[:1]
    return [run_scale_point(point["label"], point["config"])
            for point in points]


def check_scale(rows: List[Dict[str, Any]]) -> None:
    """Beyond the paper: its scale-out sweeps (Figures 5-7) stop at 12
    servers.  Every larger deployment still finishes work, and simulated
    throughput keeps growing across the 16 / 64 / 128-node points, which
    share the paper's 1:3 PN:SN ratio."""
    for row in rows:
        assert row["tpmc"] > 0 and row["events"] > 0, f"{row['label']} idle"
    nodes = [row for row in rows if row["label"].startswith("nodes")]
    for smaller, larger in zip(nodes, nodes[1:]):
        assert larger["tpmc"] > smaller["tpmc"], (
            f"{larger['label']} ({larger['tpmc']:.0f} TpmC) is not above "
            f"{smaller['label']} ({smaller['tpmc']:.0f})")
