"""repro.elastic: live topology change on the simulated timeline.

The elasticity subsystem makes the paper's headline claim -- processing
and storage scale *independently* -- operational while traffic runs:

* :mod:`repro.elastic.topology` -- deterministic rebalance/drain planning
  and the leak oracle over the store's versioned
  :class:`~repro.store.partition.PartitionMap` (epochs, handoffs);
* :mod:`repro.elastic.migration` -- the bounded-batch key-handoff
  protocol streaming partitions to their new owner while PNs keep
  committing (SI-safe: destination rides the replica list, promotion is
  a single atomic epoch step);
* :mod:`repro.elastic.coordinator` -- the sim-timeline driver (SN
  add/remove, PN grow/shrink through the recovery path, timed batches);
* :mod:`repro.elastic.autoscaler` -- the deterministic policy that turns
  ``repro.obs`` snapshots (queue depth, p99, abort rate) into add/remove
  decisions.

In-flight requests that reach a node after its partition moved fail with
:class:`repro.errors.WrongOwner` *before any state mutation* and are
re-routed by :class:`repro.dispatch.WrongOwnerRedirect`.  See
``docs/elasticity.md`` for the full protocol.
"""

from repro.elastic.topology import Move
from repro.store.partition import Handoff


def __getattr__(name):
    # Loaded on first use: the embedded database's ``db.admin()`` imports
    # this package for the migration protocol only and must not pull in
    # the coordinator or the autoscaler (and, through them, the simulator).
    if name in ("MigrationStats", "run_moves_direct", "migrate_partition"):
        from repro.elastic import migration

        return getattr(migration, name)
    if name == "ElasticCoordinator":
        from repro.elastic.coordinator import ElasticCoordinator

        return ElasticCoordinator
    if name in ("Autoscaler", "AutoscalerPolicy", "Decision"):
        from repro.elastic import autoscaler

        return getattr(autoscaler, name)
    raise AttributeError(name)


__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "Decision",
    "ElasticCoordinator",
    "Handoff",
    "MigrationStats",
    "Move",
    "migrate_partition",
    "run_moves_direct",
]
