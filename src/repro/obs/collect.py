"""Collector wiring: harvest the stack's always-on statistics.

:func:`collect_deployment` is the one walk over a deployment's counters
(storage nodes, topology, commit managers, fabric, processing nodes,
B+trees): it reads live component state into a :class:`MetricsRegistry`,
so components that appear later -- an added processing node, a
fail-over commit manager -- need no registration of their own.
:func:`watch_deployment` runs it at every snapshot of an obs hub; a
caller with obs off fills a fresh registry with it.  Everything is
duck-typed on the stats attributes so this module imports no protocol
code and works for both embedded (:class:`repro.api.Database`) and
simulated (:class:`repro.runtime.deployment.SimulatedDeployment`)
deployments.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.registry import MetricsRegistry


def watch_deployment(hub: object, deployment: object) -> None:
    """Export ``deployment``'s components in every snapshot of ``hub``."""
    hub.registry.register_collector(
        lambda reg: collect_deployment(reg, deployment))


def collect_deployment(reg: MetricsRegistry, deployment: object) -> None:
    """Write every counter of ``deployment`` into ``reg``.

    ``deployment`` exposes ``cluster``, a live ``commit_managers`` list,
    ``pn_registry`` (pn id -> ``(processing node, index manager)``) and,
    when simulated, ``fabric``.
    """
    collect_storage_cluster(reg, deployment.cluster)
    collect_commit_managers(reg, deployment.commit_managers)
    fabric = getattr(deployment, "fabric", None)
    if fabric is not None:
        collect_fabric(reg, fabric.stats)
    collect_topology(reg, deployment.cluster.partition_map)
    for pn, indexes in deployment.pn_registry.values():
        collect_processing_node(reg, pn)
        collect_index_manager(reg, indexes, pn.pn_id)


def collect_processing_node(reg: MetricsRegistry, pn: object) -> None:
    """PN commit/abort counters plus its buffer strategy's hit rates."""
    label = str(pn.pn_id)
    txns = reg.gauge("repro_pn_txns",
                     "transactions by outcome per processing node")
    stats = pn.stats
    txns.set(stats.begun, pn=label, outcome="begun")
    txns.set(stats.committed, pn=label, outcome="committed")
    txns.set(stats.aborted, pn=label, outcome="aborted")
    buffers = pn.buffers
    bstats = buffers.stats
    ops = reg.gauge("repro_buffer_ops",
                    "buffer activity per processing node")
    strategy = buffers.name
    for field in ("lookups", "hits", "vset_checks", "vset_valid",
                  "fetches", "puts"):
        ops.set(getattr(bstats, field), pn=label, strategy=strategy,
                op=field)
    reg.gauge("repro_buffer_hit_ratio",
              "per-strategy buffer hit ratio").set(
        bstats.hit_ratio, pn=label, strategy=strategy)


def collect_commit_managers(reg: MetricsRegistry,
                            managers: Sequence[object]) -> None:
    """tid/snapshot RPCs served, range refills, sync rounds, active txns
    of every manager in the deployment's *current* list: a fail-over
    replacement takes the failed manager's ``cm`` label."""
    gauge = reg.gauge("repro_cm_activity", "commit manager activity")
    mode = reg.gauge("repro_isolation_mode",
                     "1 for the commit manager's configured isolation "
                     "protocol")
    for cm in managers:
        label = str(cm.cm_id)
        gauge.set(cm.starts_served, cm=label, what="starts_served")
        gauge.set(cm.range_refills, cm=label, what="range_refills")
        gauge.set(cm.sync_rounds, cm=label, what="sync_rounds")
        gauge.set(len(cm.active_transactions()), cm=label, what="active")
        gauge.set(cm.completed_view().base, cm=label, what="base_version")
        gauge.set(cm.lowest_active_version(), cm=label, what="lav")
        # Isolation protocol surface: mode plus the WSI/SSI validation
        # counters (both stay 0 under plain SI).
        gauge.set(cm.validations, cm=label, what="validations")
        gauge.set(cm.validation_aborts, cm=label, what="validation_aborts")
        mode.set(1.0, cm=label, mode=cm.isolation_name)


def collect_storage_cluster(reg: MetricsRegistry, cluster: object) -> None:
    """Per-node op counts and bytes, plus cluster replication fan-out."""
    ops = reg.gauge("repro_sn_ops", "storage operations per node")
    usage = reg.gauge("repro_sn_bytes_used", "bytes stored per node")
    alive = reg.gauge("repro_sn_alive", "1 when the node is up")
    for node in cluster.nodes.values():
        label = str(node.node_id)
        ops.set(node.ops_read, node=label, kind="read")
        ops.set(node.ops_write, node=label, kind="write")
        ops.set(node.ops_scan, node=label, kind="scan")
        usage.set(node.bytes_used, node=label)
        alive.set(1.0 if node.alive else 0.0, node=label)
    reg.gauge("repro_replication_copies",
              "replica cell copies shipped by the cluster").set(
        cluster.replication_copies)


def collect_index_manager(reg: MetricsRegistry, indexes: object,
                          pn_id: int) -> None:
    """B+tree cache hits, node/leaf fetches and SMO retries per index."""
    label = str(pn_id)
    gauge = reg.gauge("repro_index_activity",
                      "B+tree traversal and SMO activity")
    for index_id, tree in indexes.trees():
        index = str(index_id)
        stats = tree.stats
        gauge.set(stats.node_fetches, pn=label, index=index,
                  what="node_fetches")
        gauge.set(stats.leaf_fetches, pn=label, index=index,
                  what="leaf_fetches")
        gauge.set(stats.smo_splits, pn=label, index=index,
                  what="smo_splits")
        gauge.set(stats.smo_retries, pn=label, index=index,
                  what="smo_retries")
        gauge.set(tree.cache.hits, pn=label, index=index,
                  what="cache_hits")
        gauge.set(tree.cache.misses, pn=label, index=index,
                  what="cache_misses")
        gauge.set(stats.entries_pruned, pn=label, index=index,
                  what="entries_pruned")


def collect_fabric(reg: MetricsRegistry, stats: object) -> None:
    """Simulated network totals (messages, store ops, bytes)."""
    gauge = reg.gauge("repro_fabric_totals", "simulated network totals")
    gauge.set(stats.messages, what="messages")
    gauge.set(stats.store_ops, what="store_ops")
    gauge.set(stats.bytes_sent, what="bytes_sent")


def collect_topology(reg: MetricsRegistry, pmap: object) -> None:
    """The versioned partition map: epoch, membership, live migrations."""
    gauge = reg.gauge("repro_topology", "versioned topology state")
    gauge.set(pmap.epoch, what="epoch")
    gauge.set(len(pmap.node_ids), what="nodes")
    gauge.set(len(pmap.migrations_in_flight()),
              what="migrations_in_flight")
    gauge.set(1.0 if pmap.is_balanced() else 0.0, what="balanced")
    counts = pmap.master_counts()
    masters = reg.gauge("repro_topology_masters",
                        "partitions mastered per storage node")
    for node_id in sorted(counts):
        masters.set(counts[node_id], node=str(node_id))

