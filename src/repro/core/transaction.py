"""Transactions: snapshot reads, buffered writes, LL/SC commit.

Implements the life-cycle of Section 4.3:

1. *Begin* -- the PN fetches (tid, snapshot, lav) from the commit manager.
2. *Running* -- reads fetch records from the store (through the PN's
   buffering strategy) and extract the snapshot-visible version; updates
   are buffered on the PN.
3. *Try-Commit* -- a log entry with the write-set is appended, then every
   buffered update is applied with a store-conditional write.  A failed
   LL/SC means a write-write conflict.
4. *Commit* -- indexes are updated, the commit flag is set in the log, and
   the commit manager is notified.  *Abort* -- applied updates are rolled
   back, then the commit manager is notified.

The sequence is the same under every isolation mode.  The commit manager
that issued the tid names the mode (``TxnStart.isolation``); under
``wsi`` / ``ssi`` the transaction additionally keeps its read set and,
once the log entry is durable and before any update is applied, asks the
commit manager to validate it (:class:`repro.effects.ValidateCommit`).
The admission rule lives with the manager's validator
(:mod:`repro.core.isolation`); nothing else differs on the PN.

All store-touching methods are generator coroutines.

Typestate contract: a transaction is linear -- begin, uses, then
exactly one finish (``commit``/``abort``/a ``state =
TxnState.ABORTED|COMMITTED`` write); a use after the finish raises
(``tests/test_api_surface.py::TestTransactionScope::test_manual_rollback_inside_scope_is_honored``),
and every abort path must ``yield effects.ReportAborted(tid)`` so the
commit manager can advance LAV past the tid
(``tests/test_api_surface.py::TestSessionLifecycle::test_session_context_manager_rolls_back_open_txn``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro import effects
from repro.core import recovery
from repro.core.record import TOMBSTONE, VersionedRecord
from repro.core.snapshot import TxnStart
from repro.core.spaces import DATA_SPACE
from repro.core.txlog import STATUS_ABORTED, STATUS_COMMITTED, LogEntry
from repro.errors import InvalidState, KeyNotFound, TellError, TransactionAborted

if TYPE_CHECKING:  # import cycle: processing_node constructs Transaction
    from repro.core.processing_node import ProcessingNode


class TxnState(enum.Enum):
    RUNNING = "running"
    TRY_COMMIT = "try-commit"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction executing on a processing node."""

    def __init__(self, pn: "ProcessingNode", start: TxnStart):
        self.pn = pn
        self.tid = start.tid
        self.snapshot = start.snapshot
        self.lav = start.lav
        self.state = TxnState.RUNNING
        # private transaction buffer, two parallel maps: key -> the record
        # read (None when missing) and key -> its cell version (the LL
        # token of the commit's store-conditional write)
        self._records: Dict[Any, Optional[VersionedRecord]] = {}
        self._versions: Dict[Any, int] = {}
        # buffered updates: key -> payload (TOMBSTONE for deletes)
        self._writes: Dict[Any, Any] = {}
        self._inserted: set = set()
        # pending index inserts, filled by the relational layer:
        # (btree, index_key, rid, unique row check or None).  Entries are
        # never removed at commit: they outlive their rows and reads
        # collect them (Sections 5.3.2, 5.4).
        self.index_ops: List[Tuple] = []
        self.start_time = pn.now()
        # repro.obs root span; stays None unless the deployment enabled
        # observability.  Carried explicitly (no ambient span stack --
        # simulated coroutines interleave at every yield).
        self.span = None
        # The mode is the issuing commit manager's: a PN cannot disagree
        # with the validator its commits are checked against.
        self.isolation = start.isolation
        # The read set, a dict used as an insertion-ordered set (so the
        # ValidateCommit payload is deterministic); None under si, which
        # tracks nothing.
        self._read_keys: Optional[Dict[Any, None]] = (
            None if start.isolation == "si" else {}
        )

    # -- reads ------------------------------------------------------------------

    def read(self, key: Any) -> Generator:
        """Read one record; returns the visible payload tuple or None."""
        payloads = yield from self.read_many([key])
        return payloads[key]

    def read_many(self, keys: List[Any]) -> Generator:
        """Batched read; returns ``{key: payload-or-None}``."""
        self._require(TxnState.RUNNING)
        result: Dict[Any, Any] = {}
        to_fetch: List[Any] = []
        seen = set()
        for key in keys:
            if key in self._writes:
                payload = self._writes[key]
                result[key] = None if payload is TOMBSTONE else payload
            elif key in self._records:
                result[key] = self._visible_payload(key)
            elif key not in seen:
                seen.add(key)
                to_fetch.append(key)
        if to_fetch:
            records = yield from self._fetch(to_fetch)
            snapshot = self.snapshot
            for key, record in zip(to_fetch, records):
                result[key] = (
                    None if record is None else record.visible_payload(snapshot)
                )
        read_keys = self._read_keys
        if read_keys is not None:
            for key in keys:
                read_keys[key] = None
        return result

    def read_for_update(self, key: Any) -> Generator:
        """SELECT FOR UPDATE: read a record and *materialize* the read as
        a write of the unchanged payload.

        Under snapshot isolation, concurrent transactions that both only
        read an item never conflict, which permits write skew (see
        Section 4.1: SI is not serializable).  Re-writing the read value
        turns the read into a member of the write set, so any concurrent
        writer -- or concurrent for-update reader -- conflicts at commit.
        This is the classic conflict-materialization fix applications use
        to close SI's serializability gaps selectively.

        A *missing* key is materialized as a tombstone write: the commit
        will issue a store-conditional create-at-version-0 for it, so two
        concurrent FOR UPDATE readers of the same absent key conflict
        exactly like two readers of a present one (previously the read
        silently degraded to a plain read and both could proceed).  The
        tombstone keeps the key absent for later reads in this
        transaction and commits as a no-op delete version.
        """
        payload = yield from self.read(key)
        if key not in self._writes:
            self._writes[key] = payload if payload is not None else TOMBSTONE
        return payload

    def _fetch(self, keys: List[Any]) -> Generator:
        """Fetch ``keys`` into the private cache; returns their records
        in key order."""
        span = self.span
        read_child = span.child("read") if span is not None else None
        records, versions = yield from self.pn.buffers.read_records(
            self.snapshot, keys
        )
        if read_child is not None:
            read_child.finish()
        self._records.update(zip(keys, records))
        self._versions.update(zip(keys, versions))
        return records

    def _visible_payload(self, key: Any) -> Optional[Any]:
        record = self._records[key]
        if record is None:
            return None
        return record.visible_payload(self.snapshot)

    # -- writes (buffered until commit) ----------------------------------------------

    def insert(self, key: Any, payload: Any) -> None:
        """Insert a record at a fresh key (rid allocated by the PN)."""
        self._require(TxnState.RUNNING)
        if key in self._writes and self._writes[key] is not TOMBSTONE:
            raise InvalidState(f"key {key!r} already written in this transaction")
        self._writes[key] = payload
        self._inserted.add(key)

    def update(self, key: Any, payload: Any) -> Generator:
        """Replace the visible version of ``key`` with ``payload``."""
        self._require(TxnState.RUNNING)
        if key in self._inserted or key in self._writes:
            self._writes[key] = payload
            return
        yield from self._ensure_updatable(key)
        self._writes[key] = payload

    def delete(self, key: Any) -> Generator:
        """Delete the record (writes a tombstone version).

        Returns True when the record was this transaction's own insert:
        the buffered write is dropped, nothing reaches the store, and the
        caller withdraws whatever else it queued for the row.
        """
        self._require(TxnState.RUNNING)
        if key in self._inserted:
            self._inserted.discard(key)
            del self._writes[key]
            return True
        yield from self._ensure_updatable(key)
        self._writes[key] = TOMBSTONE
        return False

    def _ensure_updatable(self, key: Any) -> Generator:
        if key not in self._records:
            yield from self._fetch([key])
        if self._visible_payload(key) is None:
            raise KeyNotFound(f"no visible version of {key!r} to update")

    # -- commit / abort -----------------------------------------------------------

    @property
    def write_set(self) -> Tuple[Any, ...]:
        return tuple(self._writes.keys())

    def local_writes(self) -> Dict[Any, Any]:
        """This transaction's buffered writes: key -> payload/TOMBSTONE.

        Access paths (table scans, index lookups) merge these in so a
        transaction reads its own uncommitted writes.
        """
        return dict(self._writes)

    @property
    def tracks_reads(self) -> bool:
        """True under wsi/ssi: access paths outside the core read methods
        (table scans) must then report keys via :meth:`note_scanned`."""
        return self._read_keys is not None

    def note_scanned(self, keys: List[Any]) -> None:
        """Add keys observed by a scan to the read set (wsi/ssi only)."""
        read_keys = self._read_keys
        if read_keys is not None:
            for key in keys:
                read_keys[key] = None

    def commit(self) -> Generator:
        """Run Try-Commit; raises :class:`TransactionAborted` on conflict."""
        self._require(TxnState.RUNNING)
        span = self.span
        pn = self.pn
        if not self._writes and not self.index_ops:
            # Read-only fast path: nothing to apply, log or validate.
            self.state = TxnState.COMMITTED
            pn.stats.committed += 1
            commit_child = span.child("commit") if span is not None else None
            yield effects.ReportCommitted(self.tid)
            if commit_child is not None:
                commit_child.finish()
            self._finish_span("committed")
            return

        # Conflict scenario 1 of Section 4.1: the record was already read
        # *with* a version newer than our snapshot (another transaction
        # applied after we started but before we read).  The LL/SC would
        # succeed -- nothing changed since the read -- so this case must
        # be detected from the version numbers themselves.
        commit_child = span.child("commit") if span is not None else None
        for key in self._writes:
            if key in self._inserted:
                continue
            record = self._records[key]
            if record is None:
                continue
            newest = record.newest_tid
            if newest != self.tid and not self.snapshot.contains(newest):
                yield from self._finish_abort(
                    None,
                    f"write-write conflict: {key!r} has newer version {newest}",
                )

        self.state = TxnState.TRY_COMMIT
        entry = LogEntry(self.tid, pn.pn_id, pn.now(), self.write_set)
        try:
            yield from pn.txlog.append(entry)
        except TellError as error:  # e.g. NoCapacity: nothing was logged
            yield from self._finish_abort(None, f"log append failed: {error}")
        if commit_child is not None:
            commit_child.finish()

        if self._read_keys is not None:
            # The validate stage: the log entry is durable and nothing is
            # applied yet, so a refusal only has to flip the log status.
            validate_child = span.child("validate") if span is not None else None
            verdict = yield effects.ValidateCommit(
                self.tid, tuple(self._read_keys), self.write_set, self.snapshot
            )
            if validate_child is not None:
                validate_child.finish()
            if not verdict.ok:
                yield from self._finish_abort(
                    entry, f"{self.isolation} validation: {verdict.reason}"
                )

        write_child = span.child("write") if span is not None else None
        keys, records, expected = self._build_apply_columns()
        try:
            oks, cell_versions = yield effects.multi_put(
                DATA_SPACE, keys, records, expected
            )
        except TellError as error:
            # The batch stops at the refused key, so any key may hold
            # our version; the undo skips those that do not.
            yield from self._rollback_applied(keys)
            yield from self._finish_abort(entry, f"write failed: {error}")
        applied = [key for key, ok in zip(keys, oks) if ok]
        if len(applied) != len(keys):
            yield from self._rollback_applied(applied)
            yield from self._finish_abort(entry, "write-write conflict")
        try:
            yield from self._apply_index_ops()
        except TellError as error:  # DuplicateKey, or a refused node write
            yield from self._rollback_applied(applied)
            yield from self._finish_abort(entry, str(error))

        # Write-through to the PN's shared buffer (if any).
        for key, record, cell_version in zip(keys, records, cell_versions):
            yield from pn.buffers.note_applied(
                self.tid, key, record, cell_version
            )

        if write_child is not None:
            write_child.finish()
        tail_child = span.child("commit") if span is not None else None
        yield from pn.txlog.set_status(entry, STATUS_COMMITTED)
        self.state = TxnState.COMMITTED
        pn.stats.committed += 1
        yield effects.ReportCommitted(self.tid)
        if tail_child is not None:
            tail_child.finish()
        self._finish_span("committed")

    def abort(self) -> Generator:
        """Manual abort: nothing was applied, just notify the manager."""
        self._require(TxnState.RUNNING)
        self.state = TxnState.ABORTED
        self.pn.stats.aborted += 1
        span = self.span
        abort_child = span.child("abort") if span is not None else None
        yield effects.ReportAborted(self.tid)
        if abort_child is not None:
            abort_child.finish()
        self._finish_span("user_abort")

    # -- commit internals ------------------------------------------------------------

    def _build_apply_columns(self) -> Tuple[List[Any], List[Any], List[int]]:
        """The LL/SC puts as ``(keys, records, expected versions)``
        columns (with eager version GC, Section 5.4)."""
        keys: List[Any] = []
        records: List[Any] = []
        expected: List[int] = []
        for key, payload in self._writes.items():
            if key in self._inserted:
                record = VersionedRecord.initial(self.tid, payload)
                version = 0
            else:
                base_record = self._records[key]
                version = self._versions[key]
                if base_record is None:
                    # The record vanished between read and write-buffering;
                    # treat as insert-at-version-0 (LL/SC still protects us).
                    record = VersionedRecord.initial(self.tid, payload)
                else:
                    # Fused eager-GC + install (collect_garbage + with_version
                    # in one slab pass; the tid is a fresh commit timestamp).
                    record = base_record.updated(self.tid, payload, self.lav)
            keys.append(key)
            records.append(record)
            expected.append(version)
        return keys, records, expected

    def _apply_index_ops(self) -> Generator:
        for btree, index_key, rid, unique in self.index_ops:
            yield from btree.insert(index_key, rid, unique=unique)

    def _rollback_applied(self, applied_keys: List[Any]) -> Generator:
        """Revert our version from every record we managed to apply."""
        for key in applied_keys:
            yield from recovery.remove_version(key, self.tid)
            self.pn.buffers.invalidate(key)

    def _finish_abort(self, entry: Optional[LogEntry], reason: str) -> Generator:
        """The one way a conflicting transaction becomes ABORTED; always
        raises.  ``entry`` is None when the conflict was found before the
        log append, so there is no status to flip."""
        if entry is not None:
            yield from self.pn.txlog.set_status(entry, STATUS_ABORTED)
        self.state = TxnState.ABORTED
        self.pn.stats.aborted += 1
        yield effects.ReportAborted(self.tid)
        self._finish_span("conflict")
        raise TransactionAborted(self.tid, reason)

    # -- helpers --------------------------------------------------------------------

    def _finish_span(self, outcome: str) -> None:
        span = self.span
        if span is not None:
            span.attrs["outcome"] = outcome
            span.finish()

    def _require(self, state: TxnState) -> None:
        if self.state is not state:
            raise InvalidState(
                f"transaction {self.tid} is {self.state.value}, needs {state.value}"
            )

    def __repr__(self) -> str:
        return f"<Transaction tid={self.tid} {self.state.value}>"
