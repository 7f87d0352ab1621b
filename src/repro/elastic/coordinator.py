"""Sim-timeline driver for live topology change.

:class:`ElasticCoordinator` runs against a
:class:`repro.runtime.deployment.SimulatedDeployment` and executes
elastic operations *while the workload runs*.  The storage operations
are the shared :class:`repro.elastic.migration.StorageOps` generators --
the same ones ``db.admin()`` drives; this driver adds only what time
needs: every migration batch they yield is charged by
:meth:`repro.runtime.fabric.SimFabric.charge_migration` (wire latency
plus per-cell copy service on both storage nodes' core pools), so a
rebalance visibly steals service capacity from foreground traffic -- the
throughput dip the elastic bench suite measures -- and every state
transition happens at an exact simulated instant.

Elastic operations serialize behind a FIFO lock and moves execute one at
a time in plan order, so a fixed seed reproduces the identical migration
schedule, epoch log, event log and digest on every run (pinned by the
determinism tests).
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.elastic.migration import DEFAULT_BATCH_CELLS, StorageOps


class ElasticCoordinator:
    """Executes SN scale-out and scale-in on the simulated timeline."""

    def __init__(
        self,
        deployment: Any,
        batch_cells: int = DEFAULT_BATCH_CELLS,
    ):
        self.deployment = deployment
        self.sim = deployment.sim
        self.fabric = deployment.fabric
        self.cluster = deployment.cluster
        #: (sim_time_us, description) log of every elastic action, in
        #: execution order -- the determinism tests pin this down.
        self.events: List[Tuple[float, str]] = []
        self._ops = StorageOps(self.cluster, deployment.management,
                               self._log, batch_cells)
        self.stats = self._ops.stats
        # Elastic operations serialize: planning against a topology whose
        # handoffs another operation is still executing would produce
        # colliding moves.  FIFO hand-off keeps the order deterministic.
        self._busy = False
        self._waiters: List[Any] = []

    def _acquire(self) -> Generator:
        if self._busy:
            gate = self.sim.event()
            self._waiters.append(gate)
            yield gate  # the releasing operation hands the lock over
        else:
            self._busy = True

    def _release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).trigger(None)
        else:
            self._busy = False

    def _log(self, message: str) -> None:
        self.events.append((self.sim.now, message))

    def _arm(self) -> None:
        # From the first elastic operation on, requests may race topology
        # changes: arm the fabric's apply-time ownership guard (and the
        # WrongOwner error path behind it).  Never reset -- a finished
        # migration still leaves moved-out tombstones behind.
        if self.fabric.elastic_active:
            return
        self.fabric.elastic_active = True
        from repro.dispatch import WrongOwnerRedirect

        interceptors = self.deployment.interceptors
        if not any(isinstance(mw, WrongOwnerRedirect) for mw in interceptors):
            # Appended last = innermost: sanitizers (and any tracing)
            # observe one logical request however many redirects it took.
            interceptors.append(WrongOwnerRedirect())

    # -- storage scale-out / scale-in: the shared operations, timed ------

    def add_storage_node(self) -> Generator:
        """Attach a fresh SN and rebalance partitions onto it, live."""
        return self._run(self._ops.add_storage_node())

    def remove_storage_node(self, node_id: int, drain: bool = True) -> Generator:
        """Retire an SN by drain or hard removal, live."""
        return self._run(self._ops.remove_storage_node(node_id, drain))

    def scale_storage_to(self, target: int) -> Generator:
        """Grow or shrink the SN fleet to ``target`` members, live;
        returns the resulting sorted node-id list."""
        return self._run(self._ops.scale_storage_to(target))

    def rebalance(self) -> Generator:
        """Move partitions until master counts differ by at most one."""
        return self._run(self._ops.rebalance())

    # -- migration driving -------------------------------------------------

    def _run(self, operation: Generator) -> Generator:
        """Drive one storage operation under the lock, charging every
        migration batch it yields; returns the operation's result."""
        self._arm()
        yield from self._acquire()
        try:
            while True:
                try:
                    cost = next(operation)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.fabric.sync_pools()
                yield from self.fabric.charge_migration(
                    cost.src, cost.dst, cost.cells, cost.nbytes
                )
        finally:
            self._release()
