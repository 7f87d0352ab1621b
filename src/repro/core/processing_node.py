"""Processing nodes (PNs): where queries run and transactions live.

A PN is stateless with respect to the database content -- it holds only
soft state (buffer caches, rid ranges) and can therefore be added or
removed at any time, which is the architecture's elasticity story.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro import effects
from repro.core.buffers import BufferingStrategy, TransactionBuffer
from repro.core.spaces import META_SPACE, rid_counter_key
from repro.core.transaction import Transaction, TxnState
from repro.core.txlog import TransactionLog
from repro.errors import TransactionAborted


class PnStats:
    """Per-node counters, bumped where a transaction begins and where its
    state reaches COMMITTED/ABORTED -- once each, whoever drives it."""

    __slots__ = ("committed", "aborted", "begun")

    def __init__(self) -> None:
        self.committed = 0
        self.aborted = 0
        self.begun = 0


class ProcessingNode:
    """One database instance of the processing layer."""

    def __init__(
        self,
        pn_id: int,
        buffers: Optional[BufferingStrategy] = None,
        clock: Optional[Callable[[], float]] = None,
        rid_range_size: int = 1024,
    ):
        self.pn_id = pn_id
        self.buffers: BufferingStrategy = (
            buffers if buffers is not None else TransactionBuffer()
        )
        self.txlog = TransactionLog()
        self._clock = clock
        self._logical_time = 0.0
        self.rid_range_size = rid_range_size
        # table_id -> [next_rid, range_end]
        self._rid_ranges: Dict[int, list] = {}
        self.stats = PnStats()
        # repro.obs hub, attached by an observability-enabled deployment;
        # None keeps every instrumentation site a single attribute check.
        self.obs = None

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        self._logical_time += 1.0
        return self._logical_time

    # -- transactions -----------------------------------------------------------

    def begin(self) -> Generator:
        """Start a transaction: one round trip to the commit manager."""
        obs = self.obs
        root = None
        if obs is not None:
            root = obs.tracer.start_span("txn")
            root.attrs["pn"] = self.pn_id
            snapshot_child = root.child("snapshot", start_us=root.start_us)
        start = yield effects.StartTransaction()
        if root is not None:
            snapshot_child.finish()
            root.attrs["tid"] = start.tid
        self.buffers.observe_snapshot(start.snapshot)
        self.stats.begun += 1
        txn = Transaction(self, start)
        txn.span = root
        return txn

    def run_transaction(
        self, logic: Callable[[Transaction], Generator], max_attempts: int = 1
    ) -> Generator:
        """Begin/execute/commit ``logic``; optionally retry on conflict.

        Returns ``(result, attempts)``.  Raises the final
        :class:`TransactionAborted` when every attempt conflicts.
        """
        attempts = 0
        while True:
            attempts += 1
            txn = yield from self.begin()
            try:
                result = yield from logic(txn)
                yield from txn.commit()
                return result, attempts
            except TransactionAborted:
                if attempts >= max_attempts:
                    raise
            except Exception:
                # An application error must not leak the tid: an abandoned
                # active transaction pins the lav and blocks GC for good.
                if txn.state is TxnState.RUNNING:
                    yield from txn.abort()
                raise

    # -- rid allocation -----------------------------------------------------------

    def allocate_rid(self, table_id: int) -> Generator:
        """Hand out a fresh record id, refilling ranges from the shared
        counter the way commit managers refill tid ranges."""
        state = self._rid_ranges.get(table_id)
        if state is None or state[0] > state[1]:
            top = yield effects.Increment(
                META_SPACE, rid_counter_key(table_id), self.rid_range_size
            )
            state = [top - self.rid_range_size + 1, top]
            self._rid_ranges[table_id] = state
        rid = state[0]
        state[0] += 1
        return rid

    def __repr__(self) -> str:
        return f"<ProcessingNode {self.pn_id} buffers={self.buffers.name}>"
