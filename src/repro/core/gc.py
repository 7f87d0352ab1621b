"""Garbage collection of record versions (Section 5.4).

Two strategies cooperate:

* *Eager* GC happens inline: a committing transaction strips collectable
  versions from a record before writing it back
  (:meth:`repro.core.record.VersionedRecord.collect_garbage`, wired into
  the commit path), and index lookups drop obsolete entries
  (:meth:`repro.sql.table.Table._maybe_gc_entry`).
* *Lazy* GC is a background task sweeping the data space in intervals,
  catching rarely-accessed records the eager path never sees.

This module implements the lazy sweeper.  Its prune write *must* stay a
``PutIfVersion`` conditioned on the version observed in the scan: the
scan result is stale after any later yield, and an unconditional write
would silently clobber concurrent committers
(``tests/test_gc.py::TestLazyGcPass::test_commit_between_scan_and_prune_survives``
fails on exactly this downgrade).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro import effects
from repro.core.spaces import DATA_SPACE


class GcStats:
    __slots__ = ("passes", "records_seen", "versions_removed", "records_removed")

    def __init__(self) -> None:
        self.passes = 0
        self.records_seen = 0
        self.versions_removed = 0
        self.records_removed = 0


def lazy_gc_pass(lav: int, stats: Optional[GcStats] = None) -> Generator:
    """Sweep every record once: prune versions below the lav; drop cells
    whose only surviving version is a tombstone.

    Every mutation uses LL/SC: if a transaction raced us, we skip the
    record -- the next pass (or the eager path) gets it.
    """
    if stats is None:
        stats = GcStats()
    stats.passes += 1
    rows = yield effects.Scan(DATA_SPACE, None, None)
    for key, record, cell_version in rows:
        stats.records_seen += 1
        if record.fully_deleted(lav):
            ok, _ = yield effects.DeleteIfVersion(DATA_SPACE, key, cell_version)
            if ok:
                stats.records_removed += 1
                stats.versions_removed += len(record)
            continue
        pruned = record.collect_garbage(lav)
        if len(pruned) == len(record):
            continue
        ok, _ = yield effects.PutIfVersion(DATA_SPACE, key, pruned, cell_version)
        if ok:
            stats.versions_removed += len(record) - len(pruned)
    return stats


def lazy_gc_loop(
    lav_source: Callable[[], int],
    interval_us: float,
    stats: Optional[GcStats] = None,
) -> Generator:
    """Background task: run a sweep every ``interval_us`` forever.

    ``lav_source`` supplies a fresh lowest-active-version each pass
    (typically ``commit_manager.lowest_active_version``).
    """
    if stats is None:
        stats = GcStats()
    while True:
        yield effects.Sleep(interval_us)
        yield from lazy_gc_pass(lav_source(), stats)
