"""The shared transaction log (Sections 4.3 / 4.4.1).

Before a transaction applies its updates it appends a log entry -- keyed
by tid, stored in the shared storage system -- containing the processing
node id, a timestamp, and the write set (the storage keys of the updated
records).  After all updates and index changes are applied, a commit flag
is set on the entry.

The log is what makes processing nodes crash-safe: a recovery process can
discover which transactions of a failed node were mid-commit and revert
exactly the versions they wrote.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional, Tuple

from repro import effects
from repro.core.spaces import LOG_SPACE
from repro.store.cell import approx_size

STATUS_ACTIVE = "active"
STATUS_COMMITTED = "committed"
STATUS_ABORTED = "aborted"


class LogEntry:
    """One transaction's log record."""

    __slots__ = ("tid", "pn_id", "timestamp", "write_set", "status", "_size")

    def __init__(
        self,
        tid: int,
        pn_id: int,
        timestamp: float,
        write_set: Tuple[Any, ...],
        status: str = STATUS_ACTIVE,
    ):
        self.tid = tid
        self.pn_id = pn_id
        self.timestamp = timestamp
        self.write_set = tuple(write_set)
        self.status = status
        self._size = -1

    def with_status(self, status: str) -> "LogEntry":
        entry = LogEntry(self.tid, self.pn_id, self.timestamp, self.write_set, status)
        entry._size = self._size  # the status is not charged
        return entry

    @property
    def committed(self) -> bool:
        return self.status == STATUS_COMMITTED

    def approx_size(self) -> int:
        if self._size < 0:  # sized on the wire and by every replica
            self._size = 32 + sum(approx_size(key) for key in self.write_set)
        return self._size

    def __repr__(self) -> str:
        return (
            f"LogEntry(tid={self.tid}, pn={self.pn_id}, "
            f"{len(self.write_set)} writes, {self.status})"
        )


class TransactionLog:
    """Coroutine helpers for reading and writing the log.

    All methods are generators yielding storage requests; run them under a
    driver (direct or simulated).
    """

    def append(self, entry: LogEntry) -> Generator:
        """Write a fresh entry (the Try-Commit prerequisite)."""
        yield effects.Put(LOG_SPACE, entry.tid, entry)

    def set_status(self, entry: LogEntry, status: str) -> Generator:
        """Overwrite the entry with an updated status flag.

        Returns the updated entry.  The caller already holds the entry's
        contents, so this is a single put (no read-modify-write needed).
        """
        updated = entry.with_status(status)
        yield effects.Put(LOG_SPACE, entry.tid, updated)
        return updated

    def get(self, tid: int) -> Generator:
        """Fetch the entry for ``tid``; returns ``None`` when absent."""
        value, _version = yield effects.Get(LOG_SPACE, tid)
        return value

    def get_many(self, tids: Iterable[int]) -> Generator:
        """Batched fetch; returns {tid: entry-or-None}."""
        tid_list = list(tids)
        entries, _versions = yield effects.multi_get(LOG_SPACE, tid_list)
        return dict(zip(tid_list, entries))
