"""repro.elastic: live topology change on the simulated timeline.

The elasticity subsystem makes the paper's headline claim -- processing
and storage scale *independently* -- operational while traffic runs:

* :mod:`repro.elastic.topology` -- the versioned ownership layer
  (epochs, handoffs, deterministic rebalance/drain planning);
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

from repro.elastic.topology import Handoff, Move, Topology


def __getattr__(name):
    # Heavier pieces load lazily: the static-topology paths (embedded DB,
    # plain simulation) construct a Topology but never touch migration,
    # coordination, or autoscaling code.
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
    "Topology",
    "migrate_partition",
    "run_moves_direct",
]
