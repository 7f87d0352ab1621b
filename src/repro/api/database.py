"""The embedded database: a full Tell deployment in one process.

``Database`` is a :class:`repro.runtime.deployment.Deployment` that hands
out SQL sessions.  Everything runs through the same protocol coroutines
the simulation uses -- only the driver differs (direct, zero-latency).

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
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.errors import InvalidState
from repro.runtime.deployment import Deployment
from repro.sql.session import Session


class Database(Deployment):
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
        super().__init__(config)
        self._next_pn_id = 0
        self.processing_nodes: Dict[int, ProcessingNode] = {}
        self._dispatchers: Dict[int, Dispatcher] = {}
        self._closed = False

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
        self._dispatchers.clear()

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
        partition rebalancing, topology inspection.
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
        pn, _indexes = self.make_pn(pn_id)
        self.processing_nodes[pn_id] = pn
        self._dispatchers[pn_id] = Dispatcher(
            self.cluster, self.commit_managers[self.cm_index_of(pn_id)], pn_id
        )
        return pn

    def remove_processing_node(self, pn_id: int) -> None:
        """Detach a PN cleanly (its soft state simply disappears)."""
        self.processing_nodes.pop(pn_id, None)
        self._dispatchers.pop(pn_id, None)

    def crash_commit_manager(self, cm_id: int) -> CommitManager:
        """:meth:`Deployment.crash_commit_manager`; processing nodes wired
        to the failed manager switch to the replacement."""
        failed = self.commit_managers[cm_id]
        replacement = super().crash_commit_manager(cm_id)
        for dispatcher in self._dispatchers.values():
            if dispatcher.commit_manager is failed:
                dispatcher.commit_manager = replacement
        return replacement

    def crash_processing_node(self, pn_id: int) -> List[int]:
        """Simulate a PN crash and run the recovery process.

        Returns the tids that were rolled back.
        """
        self.remove_processing_node(pn_id)
        return self.recover_pn_direct(pn_id)

    # -- sessions ------------------------------------------------------------------------

    def session(self, pn_id: Optional[int] = None) -> Session:
        """Open a SQL session (creating a PN when none specified exists);
        sessions on one PN share its B+tree cache."""
        if self._closed:
            raise InvalidState("database is closed")
        if pn_id is None:
            pn_id = self.add_processing_node().pn_id
        pn = self.processing_nodes[pn_id]
        indexes = self.pn_registry[pn_id][1]
        return Session(pn, self._dispatchers[pn_id], indexes)

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
