"""repro.elastic: live topology change on the simulated timeline.

The elasticity subsystem makes the paper's headline claim -- processing
and storage scale *independently* -- operational while traffic runs:

* :mod:`repro.elastic.topology` -- deterministic rebalance/drain planning
  and the leak oracle over the store's versioned
  :class:`~repro.store.partition.PartitionMap` (epochs, handoffs);
* :mod:`repro.elastic.migration` -- the bounded-batch key-handoff
  protocol streaming partitions to their new owner while PNs keep
  committing (SI-safe: destination rides the replica list, promotion is
  a single atomic epoch step), and ``StorageOps``, the one
  implementation of SN add, remove, rebalance and scale-to that both
  ``db.admin()`` and the coordinator drive;
* :mod:`repro.elastic.coordinator` -- the sim-timeline driver (timed
  batches under a FIFO lock, PN grow/shrink through the recovery path).

*When* to scale is left to the caller (a bench schedule, ``db.admin()``),
as the paper gives no policy for it.

In-flight requests that reach a node after its partition moved fail with
:class:`repro.errors.WrongOwner` *before any state mutation* and are
re-routed by :class:`repro.dispatch.WrongOwnerRedirect`.  See
``docs/elasticity.md`` for the full protocol.
"""
