"""The first-class cluster-administration surface: ``db.admin()``.

:class:`ClusterAdmin` is the supported way to change a running
deployment's storage shape -- scale-out/in with partition rebalancing,
and topology introspection::

    with repro.connect(storage_nodes=4) as db:
        with db.admin() as admin:
            admin.add_storage_node()          # attach + rebalance
            admin.remove_storage_node(2)      # drain + detach
            view = admin.topology()           # epoch, ownership map
            admin.wait_balanced()

Every storage mutation runs one of the shared
:class:`repro.elastic.migration.StorageOps` operations -- the same
generators the simulated elastic coordinator drives under live load --
through the versioned :class:`repro.store.partition.PartitionMap`
(epoch bumps, handoff lifecycle) and the bounded-batch migration
protocol.  This driver only drains them; the coordinator times them.

Leaving the ``with`` block verifies nothing leaked: no handoff residue,
hosting consistent with assignment, and -- because migrations never open
transactions -- the commit managers' pins unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.dispatch import drive_sync
from repro.elastic.migration import (StorageOps, assert_migration_clean,
                                     capture_pins)
from repro.errors import InvalidState


class ClusterAdmin:
    """Administrative handle on one :class:`repro.api.Database`."""

    def __init__(self, db: Any):
        self._db = db
        self._ops = StorageOps(db.cluster, db.management,
                               lambda message: None)
        self.stats = self._ops.stats
        self._pins = capture_pins(db.commit_managers)

    # -- context management -------------------------------------------------

    def __enter__(self) -> "ClusterAdmin":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None:
            self.verify()

    def verify(self) -> None:
        """Assert the topology leaked nothing (run on clean ``with`` exit)."""
        assert_migration_clean(
            self._db.cluster, self._db.commit_managers, self._pins
        )

    # -- storage elasticity: the shared operations, untimed -----------------

    def add_storage_node(self, rebalance: bool = True,
                         capacity_bytes: Optional[int] = None) -> int:
        """Attach a fresh storage node; by default migrate partitions onto
        it until master counts are balanced.  Returns the new node id."""
        return drive_sync(self._ops.add_storage_node(capacity_bytes, rebalance))

    def remove_storage_node(self, node_id: int, drain: bool = True) -> None:
        """Retire a storage node.

        ``drain=True`` migrates every hosted partition to the remaining
        nodes first (no data loss at any replication factor).
        ``drain=False`` models a hard removal through the management
        node's fail-over path -- under RF1 that loses the node's data,
        exactly like a crash.
        """
        drive_sync(self._ops.remove_storage_node(node_id, drain))

    def rebalance(self) -> int:
        """Even out master placement; returns the number of moves run."""
        return drive_sync(self._ops.rebalance())

    def wait_balanced(self) -> None:
        """Block until the topology is balanced (embedded mode: migrations
        are synchronous, so at most one rebalance round is needed)."""
        pmap = self._db.cluster.partition_map
        if not pmap.is_balanced():
            self.rebalance()
        if not pmap.is_balanced():
            raise InvalidState(
                "topology failed to balance: "
                f"master counts {pmap.master_counts()!r}"
            )

    # -- introspection ------------------------------------------------------

    def topology(self) -> Dict[str, Any]:
        """A point-in-time view of the versioned partition map."""
        pmap = self._db.cluster.partition_map
        return {
            "epoch": pmap.epoch,
            "n_partitions": pmap.n_partitions,
            "nodes": list(pmap.node_ids),
            "ownership": pmap.ownership(),
            "master_counts": pmap.master_counts(),
            "migrations_in_flight": pmap.migrations_in_flight(),
            "balanced": pmap.is_balanced(),
            "epoch_log": list(pmap.epoch_log),
        }

    def __repr__(self) -> str:
        pmap = self._db.cluster.partition_map
        return (f"<ClusterAdmin epoch={pmap.epoch} "
                f"nodes={len(pmap.node_ids)} "
                f"balanced={pmap.is_balanced()}>")
