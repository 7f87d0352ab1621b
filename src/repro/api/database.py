"""The embedded database: a full Tell deployment in one process.

``Database`` wires the storage cluster, commit manager(s), management
node, and any number of processing nodes, and hands out SQL sessions.
Everything runs through the same protocol coroutines the distributed
simulation uses -- only the driver differs (direct, zero-latency).

Example::

    import repro

    with repro.connect(storage_nodes=3, replication_factor=2) as db:
        with db.session() as session:
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            session.execute("INSERT INTO t VALUES (1, 'hello')")
            print(session.query("SELECT v FROM t WHERE id = 1"))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.config import DatabaseConfig
from repro.api.runner import DirectRunner, Router
from repro.core.buffers import make_strategy
from repro.core.commit_manager import CommitManager
from repro.core.isolation import make_protocol, make_validator
from repro.core.processing_node import ProcessingNode
from repro.core.recovery import recover_processing_node
from repro.core.txlog import TransactionLog
from repro.errors import InvalidState
from repro.sql.session import Session
from repro.sql.table import IndexManager
from repro.store.cluster import StorageCluster
from repro.store.management import ManagementNode


class Database:
    """An embedded shared-data database.

    Construct either from a validated :class:`DatabaseConfig` (the
    :func:`repro.connect` front door) or with the same fields as
    keyword arguments -- the keyword form builds a config internally,
    so validation happens in exactly one place.
    """

    def __init__(self, config: Optional[DatabaseConfig] = None, **kwargs: object):
        if config is not None and kwargs:
            raise InvalidState(
                "pass either a DatabaseConfig or keyword arguments, not both"
            )
        if config is None:
            config = DatabaseConfig(**kwargs)  # type: ignore[arg-type]
        self.config = config
        self.cluster = StorageCluster(
            n_nodes=config.storage_nodes,
            replication_factor=config.replication_factor,
            partitions_per_node=config.partitions_per_node,
            placement=config.placement,
        )
        self.management = ManagementNode(self.cluster)
        self.protocol = make_protocol(config.isolation)
        # Shared across every manager of the deployment (see
        # repro.core.isolation.make_validator); None under plain SI.
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
        self.buffering = config.buffering
        self._next_pn_id = 0
        self.processing_nodes: Dict[int, ProcessingNode] = {}
        self._runners: Dict[int, DirectRunner] = {}
        self._closed = False
        self.obs = self._make_obs()

    def _make_obs(self):
        from repro import obs as obs_module

        if not (self.config.observability or obs_module.obs_enabled()):
            return None
        from repro.obs.collect import watch_deployment

        hub = obs_module.Observability()
        watch_deployment(hub, self)
        return hub

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Release the deployment: detach PNs and refuse new sessions.

        Idempotent.  The underlying storage structures stay readable for
        anyone still holding a reference, but :meth:`session` raises.
        """
        if self._closed:
            return
        self._closed = True
        self.processing_nodes.clear()
        self._runners.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- cluster administration -------------------------------------------------

    def admin(self) -> "ClusterAdmin":
        """The cluster-administration surface (see
        :class:`repro.api.admin.ClusterAdmin`): storage scale-out/in with
        partition rebalancing, PN pool grow/shrink, topology inspection.
        Context-managed; leaving the block verifies no migration residue
        or transaction pin leaked."""
        if self._closed:
            raise InvalidState("database is closed")
        from repro.api.admin import ClusterAdmin

        return ClusterAdmin(self)

    # -- processing layer elasticity -------------------------------------------------

    def add_processing_node(self) -> ProcessingNode:
        """Attach a new PN (the shared-data architecture's cheap scaling
        step: no data movement, just a new instance)."""
        if self._closed:
            raise InvalidState("database is closed")
        pn_id = self._next_pn_id
        self._next_pn_id += 1
        pn = ProcessingNode(
            pn_id, buffers=make_strategy(self.buffering),
            protocol=self.protocol,
        )
        commit_manager = self.commit_managers[pn_id % len(self.commit_managers)]
        router = Router(self.cluster, commit_manager, pn_id)
        self.processing_nodes[pn_id] = pn
        self._runners[pn_id] = DirectRunner(router)
        if self.obs is not None:
            self.obs.adopt(pn)
        return pn

    def remove_processing_node(self, pn_id: int) -> None:
        """Detach a PN cleanly (its soft state simply disappears)."""
        self.processing_nodes.pop(pn_id, None)
        self._runners.pop(pn_id, None)

    def crash_commit_manager(self, cm_id: int) -> CommitManager:
        """Simulate a commit-manager failure and start a replacement.

        Per Section 4.4.3 a single-manager failure blocks new transactions
        until the in-flight ones complete (they do not need the manager to
        finish); then a replacement starts, restoring its state from the
        store: the shared tid counter both guarantees fresh tids and
        bounds the completed set -- after the drain, every assigned tid
        has finished.  With multiple managers, the peers' regular state
        publications are merged in as well.  Processing nodes wired to
        the failed manager switch to the replacement automatically.
        """
        from repro import effects
        from repro.core.commit_manager import META_SPACE, TID_COUNTER_KEY
        from repro.core.snapshot import SnapshotDescriptor

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
        for runner in self._runners.values():
            if runner.router.commit_manager is failed:
                runner.router.commit_manager = replacement
        return replacement

    def crash_processing_node(self, pn_id: int) -> List[int]:
        """Simulate a PN crash and run the recovery process.

        Returns the tids that were rolled back.
        """
        self.remove_processing_node(pn_id)
        runner = self._any_runner()
        return runner.run(
            recover_processing_node(pn_id, self.commit_managers, TransactionLog())
        )

    # -- sessions ------------------------------------------------------------------------

    def session(self, pn_id: Optional[int] = None) -> Session:
        """Open a SQL session (creating a PN when none specified exists)."""
        if self._closed:
            raise InvalidState("database is closed")
        if pn_id is None:
            pn = self.add_processing_node()
            pn_id = pn.pn_id
        pn = self.processing_nodes[pn_id]
        indexes = IndexManager()
        if self.obs is not None:
            self.obs.adopt(pn, indexes)
        return Session(pn, self._runners[pn_id], indexes)

    # -- maintenance ----------------------------------------------------------------------

    def sync_commit_managers(self) -> None:
        """Synchronize all commit managers to a converged view.

        In the simulated deployment a background task runs one sync round
        per manager every ~1 ms and views converge over rounds; this
        embedded-mode convenience runs two passes so that a publication
        made after an earlier manager's absorb step still propagates.
        """
        peer_ids = [manager.cm_id for manager in self.commit_managers]
        for _pass in range(2):
            for manager in self.commit_managers:
                manager.sync(peer_ids)

    def lowest_active_version(self) -> int:
        return min(
            manager.lowest_active_version() for manager in self.commit_managers
        )

    def _any_runner(self) -> DirectRunner:
        if self._runners:
            return next(iter(self._runners.values()))
        pn = self.add_processing_node()
        return self._runners[pn.pn_id]

    def __repr__(self) -> str:
        state = " closed" if self._closed else ""
        return (
            f"<Database SNs={len(self.cluster.nodes)} "
            f"PNs={len(self.processing_nodes)} "
            f"CMs={len(self.commit_managers)}{state}>"
        )


def connect(config: Optional[DatabaseConfig] = None, **kwargs: object) -> Database:
    """Open an embedded database; see :func:`repro.connect`."""
    return Database(config, **kwargs)
