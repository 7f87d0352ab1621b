"""The isolation-protocol strategy layer.

:class:`IsolationProtocol` owns the commit pipeline that used to be
hardwired into ``Transaction.commit()``.  The pipeline itself -- precheck,
log append, LL/SC apply, index maintenance, status flip, commit-manager
report -- is identical for every protocol; the variants differ only in

* whether reads are *tracked* (``tracks_reads`` plus the ``attach`` /
  ``note_reads`` hooks called from the transaction's read paths), and
* the :meth:`validate` stage, which runs after the commit log entry is
  durable and before any update is applied.

:class:`SIProtocol` is the paper's protocol: no tracking, an empty
validate stage.  Its effect sequence is byte-identical to the historical
monolithic ``Transaction.commit`` -- ``tests/test_determinism.py`` pins
that with the benchmark digest.  The read-validating variants live in
:mod:`repro.core.isolation.validated`.

Protocol instances are stateless and shared across processing nodes;
all per-transaction state lives on the transaction object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Sequence

from repro import effects
from repro.core.txlog import STATUS_COMMITTED, LogEntry
from repro.errors import DuplicateKey, TransactionAborted

if TYPE_CHECKING:
    from repro.core.transaction import Transaction


class IsolationProtocol:
    """Base strategy: snapshot isolation (the commit pipeline as-is)."""

    #: Mode string, matches ``DatabaseConfig.isolation``.
    name = "si"
    #: True when the transaction read paths must capture read keys.
    #: Kept as a cheap class attribute so SI's read path stays a single
    #: attribute test away from the historical code.
    tracks_reads = False

    def attach(self, txn: "Transaction") -> None:
        """Called once from ``Transaction.__init__``; tracking protocols
        install their per-transaction read-set state here."""

    def note_reads(self, txn: "Transaction", keys: Sequence[Any]) -> None:
        """Record keys observed through ``read_many`` (and therefore
        ``read``/``read_for_update``).  Only called when
        ``tracks_reads`` is true."""

    def note_scanned(self, txn: "Transaction", keys: Sequence[Any]) -> None:
        """Record keys observed through a table scan (pushdown or raw)."""

    def validate(self, txn: "Transaction", entry: LogEntry) -> Generator:
        """Commit-time validation stage; SI has none.

        Runs between the commit-log append and the first applied update,
        so a validation abort only needs to flip the log status -- there
        is nothing to roll back yet.  Implementations abort by delegating
        to ``txn._finish_abort`` (which raises ``TransactionAborted``).
        """
        return
        yield  # pragma: no cover -- keeps this a generator function

    # -- the commit pipeline ---------------------------------------------------

    def commit(self, txn: "Transaction") -> Generator:
        """Run Try-Commit for ``txn``; raises ``TransactionAborted`` on
        conflict.  See ``Transaction.commit`` for the public entry."""
        from repro.core.transaction import TxnState

        span = txn.span
        if not txn._writes and not txn.index_ops:
            # Read-only fast path: nothing to apply or log.
            txn.state = TxnState.COMMITTED
            txn.pn.stats.committed += 1
            commit_child = span.child("commit") if span is not None else None
            yield effects.ReportCommitted(txn.tid)
            if commit_child is not None:
                commit_child.finish()
            txn._finish_span("committed")
            return

        # Conflict scenario 1 of Section 4.1: the record was already read
        # *with* a version newer than our snapshot (another transaction
        # applied after we started but before we read).  The LL/SC would
        # succeed -- nothing changed since the read -- so this case must
        # be detected from the version numbers themselves.
        commit_child = span.child("commit") if span is not None else None
        for key in txn._writes:
            if key in txn._inserted:
                continue
            record, _cell_version = txn._cache[key]
            if record is None:
                continue
            newest = record.newest_tid
            if newest != txn.tid and not txn.snapshot.contains(newest):
                txn.state = TxnState.ABORTED
                txn.pn.stats.aborted += 1
                yield effects.ReportAborted(txn.tid)
                txn._finish_span("conflict")
                raise TransactionAborted(
                    txn.tid,
                    f"write-write conflict: {key!r} has newer version {newest}",
                )

        txn.state = TxnState.TRY_COMMIT
        entry = LogEntry(txn.tid, txn.pn.pn_id, txn.pn.now(), txn.write_set)
        yield from txn.pn.txlog.append(entry)
        if commit_child is not None:
            commit_child.finish()

        if self.tracks_reads:  # SI skips even the no-op generator
            yield from self.validate(txn, entry)

        write_child = span.child("write") if span is not None else None

        puts, new_records = txn._build_apply_ops()
        results = yield effects.Batch(puts)

        applied: List[Any] = []
        conflict = False
        for op, (ok, _version) in zip(puts, results):
            if ok:
                applied.append(op.key)
            else:
                conflict = True
        if conflict:
            yield from txn._rollback_applied(applied)
            yield from txn._finish_abort(entry, "write-write conflict")

        try:
            yield from txn._apply_index_ops()
        except DuplicateKey as duplicate:
            yield from txn._rollback_applied(applied)
            yield from txn._finish_abort(entry, str(duplicate))

        # Write-through to the PN's shared buffer (if any).
        for op, (ok, cell_version) in zip(puts, results):
            yield from txn.pn.buffers.note_applied(
                txn.tid, op.key, new_records[op.key], cell_version
            )

        if write_child is not None:
            write_child.finish()
        tail_child = span.child("commit") if span is not None else None
        yield from txn.pn.txlog.set_status(entry, STATUS_COMMITTED)
        txn.state = TxnState.COMMITTED
        txn.pn.stats.committed += 1
        yield effects.ReportCommitted(txn.tid)
        if tail_child is not None:
            tail_child.finish()
        txn._finish_span("committed")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SIProtocol(IsolationProtocol):
    """Snapshot isolation -- the explicit name for the base protocol."""

    name = "si"
