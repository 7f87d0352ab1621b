"""The ``elastic`` experiment: throughput through live topology change.

Online elasticity (:mod:`repro.elastic`) is measured here by what it
*costs*.  Each point runs the full simulated TPC-C deployment through a
diurnal storage cycle -- double the SN fleet mid-run, then drain back to
the original size -- while terminals keep committing, and reports
throughput and tail latency **before**, **during**, and **after** the
topology churn.  Migration batches are timed messages charged against
the same SN core pools as foreground traffic, so the "during" dip is a
measured quantity, not an annotation.

Phase capture works by swapping the deployment's live ``TxnMetrics``
sink at the phase boundaries (terminals read it per record, so the swap
is free and adds no simulated time); the digest covers the merged
series across all three phases plus the coordinator's event log, making
every point reproducible byte-for-byte under a fixed seed.

Use via ``python -m repro.bench elastic`` (``--profile smoke`` runs only
the ``smoke`` point) or :func:`run_elastic_point` directly.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import TYPE_CHECKING, Any, Dict, List

from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.workloads.tpcc.params import TpccScale

if TYPE_CHECKING:
    from repro.bench.experiments import BenchProfile

#: Phase boundaries as fractions of the run: the doubling starts at
#: ``_DOUBLE_AT``, the drain back at ``_HALVE_AT``, and everything after
#: ``_SETTLE_AT`` counts as the recovered steady state.
_DOUBLE_AT = 0.25
_HALVE_AT = 0.55
_SETTLE_AT = 0.85

PHASES = ("before", "during", "after")


def _point(
    label: str,
    pns: int,
    sns: int,
    *,
    warehouses: int,
    duration_us: float,
    threads_per_pn: int = 8,
    customers_per_district: int = 60,
    batch_cells: int = 256,
) -> Dict[str, Any]:
    scale = TpccScale(
        warehouses=warehouses,
        districts_per_warehouse=10,
        customers_per_district=customers_per_district,
        initial_orders_per_district=customers_per_district,
        items=1000,
    )
    config = TellConfig(
        processing_nodes=pns,
        storage_nodes=sns,
        threads_per_pn=threads_per_pn,
        scale=scale,
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=1,
    )
    return {"label": label, "config": config, "batch_cells": batch_cells}


#: The suite, smallest first.  ``smoke`` is the CI gate: a 2->4->2 SN
#: cycle small enough for every PR.  ``elastic64`` is the acceptance
#: configuration -- a 64-node deployment (16 PNs + 48 SNs) doubling and
#: halving its SN count under live TPC-C.
def elastic_points() -> List[Dict[str, Any]]:
    return [
        _point("smoke", 2, 2, warehouses=1, duration_us=240_000.0,
               threads_per_pn=4, customers_per_district=40,
               batch_cells=128),
        _point("diurnal16", 4, 12, warehouses=4, duration_us=300_000.0),
        _point("elastic64", 16, 48, warehouses=8, duration_us=240_000.0,
               customers_per_district=30),
    ]


def _phase_stats(metrics: TxnMetrics, window_us: float) -> Dict[str, Any]:
    finished = metrics.total_finished
    seconds = window_us / 1e6 if window_us > 0 else 0.0
    stats = metrics.latency()
    return {
        "txns": finished,
        "committed": metrics.total_committed,
        "txns_per_s": finished / seconds if seconds else 0.0,
        "p99_ms": stats.p99_us / 1000.0,
        "abort_rate": metrics.abort_rate,
    }


def _run_digest(phase_metrics: Dict[str, TxnMetrics],
                events: List) -> str:  # noqa: ANN001 - (time, str) pairs
    """One digest over the merged measurement series *and* the elastic
    event log: identical behaviour -- including the exact simulated
    instant of every migration step -- produces an identical digest."""
    merged = TxnMetrics()
    for name in PHASES:
        merged.merge(phase_metrics[name])
    payload = json.dumps(
        [f"{at:.3f} {what}" for at, what in events], sort_keys=True
    ).encode()
    mixer = hashlib.sha256(payload)
    mixer.update(merged.digest().encode())
    return mixer.hexdigest()


def run_elastic_point(point: Dict[str, Any]) -> Dict[str, Any]:
    """Run one diurnal double/halve cycle and report the three phases."""
    from repro.bench.simcluster import SimulatedTell
    from repro.dispatch import WrongOwnerRedirect
    from repro.elastic.coordinator import ElasticCoordinator

    config: TellConfig = point["config"]
    deployment = SimulatedTell(config)
    deployment.load()
    coordinator = ElasticCoordinator(
        deployment, batch_cells=point["batch_cells"]
    )
    sim = deployment.sim
    duration = config.duration_us
    t_double = duration * _DOUBLE_AT
    t_halve = duration * _HALVE_AT
    t_settle = duration * _SETTLE_AT

    phase_metrics = {name: TxnMetrics() for name in PHASES}
    deployment.metrics = phase_metrics["before"]
    sim.call_at(
        t_double,
        lambda: setattr(deployment, "metrics", phase_metrics["during"]),
    )
    sim.call_at(
        t_settle,
        lambda: setattr(deployment, "metrics", phase_metrics["after"]),
    )

    base_sns = config.storage_nodes
    sim.call_at(t_double, lambda: sim.spawn(
        coordinator.scale_storage_to(base_sns * 2), name="elastic-double"
    ))
    sim.call_at(t_halve, lambda: sim.spawn(
        coordinator.scale_storage_to(base_sns), name="elastic-halve"
    ))

    started = time.perf_counter()
    deployment.run()
    wall = time.perf_counter() - started

    warmup = config.warmup_us
    windows = {
        "before": t_double - warmup,
        "during": t_settle - t_double,
        "after": duration - t_settle,
    }
    for name in PHASES:
        phase_metrics[name].measured_time_us = windows[name]

    redirects = sum(
        mw.redirects for mw in deployment.interceptors
        if isinstance(mw, WrongOwnerRedirect)
    )
    return {
        "label": point["label"],
        "pns": config.processing_nodes,
        "sns": base_sns,
        "sns_final": len(deployment.cluster.nodes),
        "warehouses": config.scale.warehouses,
        "duration_us": duration,
        "phases": {
            name: _phase_stats(phase_metrics[name], windows[name])
            for name in PHASES
        },
        "migration": coordinator.stats.as_dict(),
        "redirects": redirects,
        "epoch": deployment.cluster.partition_map.epoch,
        "events": deployment.sim.events_processed,
        "wall_s": wall,
        "digest": _run_digest(phase_metrics, coordinator.events),
    }


def cycle(point: Dict[str, Any]) -> str:
    """Human label for the point's SN trajectory."""
    return (f"{point['sns']}->{2 * point['sns']}->"
            f"{point['sns_final']} SNs")


def run_elastic(profile: BenchProfile) -> List[Dict[str, Any]]:
    """Every point; the smoke profile stops after ``smoke``."""
    points = elastic_points()
    if profile.name == "smoke":
        points = points[:1]
    return [run_elastic_point(point) for point in points]


def check_elastic(rows: List[Dict[str, Any]]) -> None:
    """Beyond the paper: Section 2.1 claims storage can grow and shrink
    independently of processing; here it does so under live TPC-C.  A
    scheduled cycle moves partitions, loses no handoff, returns to the
    original fleet, and throughput neither collapses while data migrates
    nor stays down afterwards."""
    for row in rows:
        phases = row["phases"]
        assert all(phases[name]["committed"] > 0 for name in PHASES), (
            f"{row['label']}: a phase committed nothing")
        label, before = row["label"], phases["before"]["txns_per_s"]
        assert row["migration"]["partitions_moved"] > 0, f"{label}: no move"
        assert row["migration"]["aborted_handoffs"] == 0, (
            f"{label}: a handoff aborted")
        assert row["sns_final"] == row["sns"], f"{label}: fleet did not return"
        assert phases["during"]["txns_per_s"] > 0.5 * before, (
            f"{label}: throughput collapsed during migration")
        assert phases["after"]["txns_per_s"] > 0.8 * before, (
            f"{label}: throughput did not recover")
