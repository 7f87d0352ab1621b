"""Recovery of failed processing nodes (Section 4.4.1).

Processing nodes are crash-stop: when one fails, every transaction it had
in flight must be aborted, and transactions that were mid-commit (updates
partially applied) must be reverted.  The transaction log holds enough
information to do so: the write set identifies the records, and removing
the version numbered ``tid`` from each of them (:func:`remove_version`,
the same undo step a conflicting commit runs on itself) undoes the
transaction.

Two discovery strategies are provided:

* :func:`recover_processing_node` asks the commit managers which tids the
  failed node had active (the managers track the owning PN per tid);
* :func:`discover_from_log` implements the paper's fallback of iterating
  the log backwards from the highest assigned tid down to the lav, which
  works even when commit-manager state was lost too.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.spaces import DATA_SPACE
from repro.core.txlog import STATUS_ABORTED, LogEntry, TransactionLog


def rollback_entry(entry: LogEntry, txlog: TransactionLog) -> Generator:
    """Revert every record version written by ``entry``'s transaction."""
    for key in entry.write_set:
        yield from remove_version(key, entry.tid)
    yield from txlog.set_status(entry, STATUS_ABORTED)


def remove_version(key: Any, tid: int) -> Generator:
    """The LL/SC loop removing version ``tid`` from the record at ``key``
    -- the one undo step, shared by commit-time rollback
    (``Transaction._rollback_applied``) and PN recovery.  A concurrent
    writer may touch the record between the read and the conditional
    write; the loop then retries on the fresh copy."""
    while True:
        value, cell_version = yield effects.Get(DATA_SPACE, key)
        if value is None or value.get(tid) is None:
            return  # already gone (e.g. the insert was GC-removed)
        remaining = value.without_version(tid)
        if len(remaining) == 0:
            ok, _ = yield effects.DeleteIfVersion(DATA_SPACE, key, cell_version)
        else:
            ok, _ = yield effects.PutIfVersion(
                DATA_SPACE, key, remaining, cell_version
            )
        if ok:
            return


def recover_processing_node(
    pn_id: int,
    commit_managers: List[CommitManager],
    txlog: TransactionLog,
) -> Generator:
    """Roll back every in-flight transaction of the failed node.

    The management node runs exactly one recovery process at a time; a
    single invocation can cover several failed nodes by being called per
    node while the recovery lock is held.  Returns the list of rolled-back
    tids.
    """
    active_tids: List[int] = []
    for manager in commit_managers:
        active_tids.extend(manager.active_tids_of(pn_id))
    rolled_back = yield from _rollback_tids(active_tids, pn_id, txlog)
    # Completing the tids lets the global base version advance again.
    # Recovery addresses *every* commit manager on the dead node's
    # behalf, not the caller's own CM binding, so it cannot go through
    # the dispatcher's single-CM effect.
    for manager in commit_managers:
        for tid in active_tids:
            manager.set_aborted(tid)
    return rolled_back


def discover_from_log(
    pn_id: int,
    highest_tid: int,
    lav: int,
    txlog: TransactionLog,
) -> Generator:
    """Paper's discovery walk: iterate the log backwards until the lav.

    The lav acts as a rolling checkpoint -- transactions at or below it
    have completed, so nothing older needs inspection.  Returns the tids
    that required rollback.
    """
    candidates = list(range(highest_tid, lav, -1))
    return (yield from _rollback_tids(candidates, pn_id, txlog))


def _rollback_tids(
    tids: Iterable[int], pn_id: int, txlog: TransactionLog
) -> Generator:
    ordered = sorted(tids, reverse=True)
    rolled_back: List[int] = []
    batch = 128
    for i in range(0, len(ordered), batch):
        entries = yield from txlog.get_many(ordered[i : i + batch])
        for tid in ordered[i : i + batch]:
            entry = entries.get(tid)
            if entry is None:
                continue  # never reached Try-Commit: nothing was applied
            if entry.pn_id != pn_id or entry.status != "active":
                continue
            yield from rollback_entry(entry, txlog)
            rolled_back.append(tid)
    return rolled_back
