"""The one wiring of a Tell deployment (paper Figure 3, Section 4.4).

:class:`Deployment` is a shared record store, commit managers sharing one
validator, a management node and any number of *stateless* processing
nodes, plus the node-failure operations of Section 4.4.  The embedded
:class:`repro.api.Database` and :class:`SimulatedDeployment` differ only
in who drives the protocol coroutines and who supplies time.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from repro import effects
from repro.core.buffers import make_strategy
from repro.core.commit_manager import TID_COUNTER_KEY, CommitManager
from repro.core.isolation import make_validator
from repro.core.processing_node import ProcessingNode
from repro.core.recovery import recover_processing_node
from repro.core.snapshot import SnapshotDescriptor
from repro.core.spaces import META_SPACE
from repro.core.transaction import Transaction
from repro.core.txlog import TransactionLog
from repro.dispatch import Dispatcher, Interceptor
from repro.errors import InvalidState, TellError, TransactionAborted
from repro.runtime.config import DeploymentConfig, SimulationConfig
from repro.runtime.fabric import CorePool, SimFabric, drive, serving_manager
from repro.sim.kernel import Delay, Process, SchedulerPolicy, Simulator
from repro.sql.table import IndexManager
from repro.store.cluster import StorageCluster
from repro.store.management import ManagementNode


class Deployment:
    """Storage cluster + commit managers + management node + obs hub;
    storage-node fail-over is ``management.handle_node_failure``.
    Without a ``clock`` processing nodes count logical steps."""

    def __init__(self, config: DeploymentConfig,
                 clock: Optional[Callable[[], float]] = None):
        self.config = config
        self.clock = clock
        self.cluster = StorageCluster(
            n_nodes=config.storage_nodes,
            replication_factor=config.replication_factor,
            partitions_per_node=config.partitions_per_node,
        )
        self.management = ManagementNode(self.cluster)
        # One validator shared by every manager: it models validation
        # state synchronized through the store, not per-manager memory
        # (None under plain SI).
        self.validator = make_validator(config.isolation)
        self.commit_managers: List[CommitManager] = [
            CommitManager(
                cm_id, self.cluster.execute, config.tid_range_size,
                interleaved=config.interleaved_tids,
                n_managers=config.commit_managers,
                validator=self.validator,
            )
            for cm_id in range(config.commit_managers)
        ]
        #: Every processing node :meth:`make_pn` built, by id in creation
        #: order (a PN made again under its id replaces the entry), with
        #: its index manager (B+tree handles and caches): the one list of
        #: PNs the obs walk and ``quiesce`` read.
        self.pn_registry: Dict[int, Tuple[ProcessingNode, IndexManager]] = {}
        self.obs = None
        from repro.obs import obs_enabled
        if config.observability or obs_enabled():
            from repro.obs import Observability
            from repro.obs.collect import watch_deployment

            self.obs = Observability(clock=clock)
            watch_deployment(self.obs, self)

    # -- processing nodes ---------------------------------------------------

    def make_pn(self, pn_id: int) -> Tuple[ProcessingNode, IndexManager]:
        """A fresh processing node (no data movement, just a new
        instance) and its index manager, recorded in ``pn_registry``; the
        PN's transactions open spans on the obs hub, if any."""
        pn = ProcessingNode(
            pn_id,
            buffers=make_strategy(self.config.buffering),
            clock=self.clock,
        )
        pn.obs = self.obs
        entry = self.pn_registry[pn_id] = (pn, IndexManager())
        return entry

    def cm_index_of(self, pn_id: int) -> int:
        """The commit manager serving processing node ``pn_id``."""
        return serving_manager(pn_id, len(self.commit_managers))

    def recover_pn_direct(self, pn_id: int) -> List[int]:
        """Run PN recovery (Section 4.4.1) for a crashed processing node
        to completion, outside simulated time; returns the rolled-back
        tids."""
        return effects.run_direct(
            recover_processing_node(
                pn_id, self.commit_managers, TransactionLog()
            ),
            Dispatcher(self.cluster),
        )

    # -- commit-manager fail-over ------------------------------------------

    def crash_commit_manager(self, cm_id: int) -> CommitManager:
        """Simulate a commit-manager failure and start a replacement.

        Per Section 4.4.3 a single-manager failure blocks new transactions
        until the in-flight ones complete (they do not need the manager to
        finish); then a replacement starts, restoring its state from the
        store: the shared tid counter both guarantees fresh tids and
        bounds the completed set -- after the drain, every assigned tid
        has finished.  With multiple managers, the peers' regular state
        publications are merged in as well.  The replacement takes the
        failed manager's slot in ``commit_managers``, so everything that
        addresses managers by index switches over automatically.
        """
        failed = self.commit_managers[cm_id]
        if failed._active_base:
            raise InvalidState(
                "the failed manager still has active transactions; they "
                "must complete (or be recovered) before a replacement "
                "starts (paper Section 4.4.3)"
            )
        peer_ids = [m.cm_id for m in self.commit_managers if m.cm_id != cm_id]
        # The WSI/SSI validator is shared deployment state: with live
        # peers it survives the crash (it models store-synchronized
        # records).  A single-manager deployment loses it with the
        # manager, so the replacement gets a fresh one whose recovery
        # horizon conservatively aborts pre-crash transactions.
        validator = failed.validator
        if validator is not None and len(self.commit_managers) == 1:
            validator = make_validator(self.config.isolation)
        replacement = CommitManager.recover(
            cm_id, self.cluster.execute, peer_ids,
            tid_range_size=failed.tid_range_size,
            interleaved=failed.interleaved,
            n_managers=failed.n_managers,
            validator=validator,
        )
        # After a full drain (no manager has active transactions), every
        # tid up to the shared counter has completed, so the counter
        # bounds the replacement's snapshot.  With live peers still
        # running transactions this shortcut would wrongly mark their
        # in-flight tids complete, so it only applies to a quiet cluster;
        # otherwise the peers' publications (absorbed above) provide the
        # recoverable state and the base catches up via syncs.
        fully_drained = all(
            manager is failed or not manager._active_base
            for manager in self.commit_managers
        )
        if fully_drained:
            counter, _version = self.cluster.execute(
                effects.Get(META_SPACE, TID_COUNTER_KEY)
            )
            if counter:
                replacement.completed.merge_snapshot(
                    SnapshotDescriptor(counter, 0)
                )
                replacement.last_assigned_tid = max(
                    replacement.last_assigned_tid, counter
                )
        if validator is not None and validator is not failed.validator:
            validator.mark_recovered(replacement.highest_known_tid())
            self.validator = validator
        self.commit_managers[cm_id] = replacement
        return replacement


#: The handle ``_make_pn`` gives the frozen ledger: a processing node, its
#: core pool, its commit manager's index, its indexes.
PnHandle = Tuple[ProcessingNode, CorePool, int, IndexManager]


class SimulatedDeployment(Deployment):
    """A deployment under the simulated fabric, minus the workload.

    Owns the event kernel (under ``policy``, if any: the schedule
    explorer's hook), the fabric (which owns every core pool), the
    interceptor chain (see ``docs/dispatch.md``; the empty default adds
    no work to the hot loop), the processing-node pool (fixed for the
    length of a run), ``spawn``, ``run()`` and ``quiesce()``.
    A subclass supplies ``load()``, ``_transactions(indexes, seed)`` --
    one terminal's endless source of ``(name, body)`` pairs, ``body(txn)``
    being the workload coroutine, finished with before the next pair
    is drawn -- and ``_obs_label()``, and may name its own rollback in
    ``_rollback_errors``; ``metrics`` is its recorder -- the runtime
    only stamps the measured window and the obs snapshot on it.
    """

    #: What a workload body raises to roll its transaction back on
    #: purpose (outcome ``"user_abort"``, not ``"conflict"``).
    _rollback_errors: Tuple[type, ...] = ()

    def __init__(self, config: SimulationConfig, metrics: Any,
                 interceptors: Sequence[Interceptor] = (),
                 policy: Optional[SchedulerPolicy] = None):
        self.sim = Simulator(policy)
        super().__init__(config, clock=lambda: self.sim.now)
        self.fabric = SimFabric(
            self.sim, self.cluster, self.commit_managers, config
        )
        self.metrics = metrics
        self.interceptors = list(interceptors)
        self.sanitizer_log = None
        from repro.san import sanitizers_enabled
        if sanitizers_enabled():
            from repro.san import make_sanitizers

            self.sanitizer_log, chain = make_sanitizers(
                isolation=config.isolation
            )
            self.interceptors.extend(chain)
        self._pn_handles: List[PnHandle] = []
        self._warmup_end = min(config.warmup_us, config.duration_us)
        self._end_time = config.duration_us
        self._populated = False

    def spawn(self, pn_id: int, gen: Generator, name: str) -> Process:
        """Run one protocol script of processing node ``pn_id`` as a sim
        process (one fresh DispatchContext per script: it keys the
        shadow's txn attribution)."""
        return self.sim.spawn(drive(self.fabric, self.interceptors, pn_id, gen), name=name)

    # -- adapters kept for the frozen performance ledger -----------------

    def _make_pn(self, pn_id: int) -> PnHandle:
        pn, indexes = self.make_pn(pn_id)
        return (pn, self.fabric.pn_pools[pn_id], self.cm_index_of(pn_id),
                indexes)

    def _drive(self, pool: CorePool, cm_index: int, gen: Generator, *,
               pn_id: int) -> Generator:
        """:func:`drive`, given the pool and manager of ``pn_id``'s handle."""
        assert pool is self.fabric.pn_pools[pn_id] and cm_index == self.cm_index_of(pn_id)
        return drive(self.fabric, self.interceptors, pn_id, gen)

    # -- the simulated run -------------------------------------------------

    def run(self) -> Any:
        if not self._populated:
            self.load()
        end_time = self._end_time
        for pn_id in range(self.config.processing_nodes):
            self._pn_handles.append(self._make_pn(pn_id))
            for thread in range(self.config.threads_per_pn):
                self.sim.spawn(
                    self._terminal(pn_id, self._terminal_seed(pn_id, thread)),
                    name=f"pn{pn_id}-t{thread}",
                )
        if len(self.commit_managers) > 1:
            for manager in self.commit_managers:
                self.sim.spawn(
                    self._cm_sync_loop(manager), name=f"cm{manager.cm_id}-sync"
                )
        self.sim.run(until=end_time)
        self.metrics.measured_time_us = end_time - self._warmup_end
        if self.sanitizer_log is not None:
            self.sanitizer_log.assert_clean()
        if self.obs is not None:
            from repro import obs as obs_module

            snapshot = self.obs.snapshot()
            # Outside the digest: observability must never change the
            # deterministic result identity of a run.
            self.metrics.obs_snapshot = snapshot
            obs_module.emit(self._obs_label(), snapshot)
        return self.metrics

    def _terminal_seed(self, pn_id: int, thread: int) -> int:
        """Per-terminal RNG seed; workload subclasses derive their own."""
        return (self.config.seed * 10_007 + pn_id * 131 + thread) & 0x7FFFFFFF

    def _terminal(self, pn_id: int, seed: int) -> Generator:
        """One closed-loop client of processing node ``pn_id`` (a sim
        process body): it runs the workload's transactions back to back
        until the run ends."""
        pn, indexes = self.pn_registry[pn_id]
        transactions = self._transactions(indexes, seed)
        warmup_end = self._warmup_end
        end_time = self._end_time
        sim, fabric, interceptors = self.sim, self.fabric, self.interceptors
        while sim.now < end_time:
            name, body = next(transactions)
            started = sim.now
            try:
                outcome = yield from drive(
                    fabric, interceptors, pn_id, self._transaction(pn, name, body)
                )
            except TellError:
                # An infrastructure failure (e.g. a storage node dying
                # under an in-flight request) escaped the transaction's
                # own abort path.  The terminal abandons the transaction
                # exactly like a crashed PN -- recovery reconciles the
                # leftover state -- and keeps serving.
                outcome = "conflict"
            if started >= warmup_end:
                self.metrics.record(name, outcome, sim.now - started)

    def _transaction(self, pn: ProcessingNode, name: str,
                     body: Callable[[Transaction], Generator]) -> Generator:
        """begin -> per-transaction overhead -> body -> commit; returns
        ``"committed"``, ``"conflict"`` or ``"user_abort"``."""
        try:
            txn: Transaction = yield from pn.begin()
        except TellError:
            return "conflict"
        if txn.span is not None:
            txn.span.attrs["txn"] = name
        if self.config.txn_overhead_us > 0:
            yield effects.Compute(self.config.txn_overhead_us)
        try:
            yield from body(txn)
        except self._rollback_errors:
            yield from txn.abort()
            return "user_abort"
        except TransactionAborted:
            return "conflict"
        except TellError:
            # e.g. KeyNotFound under races: treat as an abort
            yield from txn.abort()
            return "conflict"
        try:
            yield from txn.commit()
        except TransactionAborted:
            return "conflict"
        return "committed"

    def quiesce(self) -> int:
        """Roll back every transaction still in flight after the run.

        Stopping the simulation mid-air leaves workers exactly like
        crashed processing nodes; the paper's recovery procedure
        (Section 4.4.1) brings the store back to a transaction-consistent
        state.  Returns the number of transactions rolled back.
        """
        return sum(
            len(self.recover_pn_direct(pn_id))
            for pn_id in sorted(self.pn_registry)
        )

    def _cm_sync_loop(self, manager: CommitManager) -> Generator:
        """Background snapshot synchronization between commit managers."""
        peer_ids = [m.cm_id for m in self.commit_managers]
        pause = Delay(self.config.cm_sync_interval_us)  # immutable: reused
        while True:
            yield pause
            # State-wise the sync runs through the store directly; its
            # timing cost (a handful of microseconds of CM time per
            # interval) is negligible compared to the interval itself.
            manager.sync(peer_ids)
