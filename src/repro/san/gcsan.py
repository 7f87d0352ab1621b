"""Garbage-collection sanitizer (Section 5.4's safety rules, checked).

Both GC strategies -- the eager prune inlined into the commit path and
the lazy background sweeper -- ultimately surface as ordinary LL/SC
writes: a store-conditional put (single or batched) whose new record is
missing versions the old record had, or a ``DeleteIfVersion`` removing
the cell outright.  :class:`GCChecks` looks at exactly those shrinking
writes and checks every removed version against the shadow history:

* **GC-ABOVE-LAV** -- a committed version newer than the *true* lowest
  active version (the minimum snapshot base the shadow observed being
  handed out) was pruned.  The production lav can legitimately lag the
  true lav (delayed peer sync), which only makes GC more conservative;
  pruning *above* it is the unsafe direction.
* **GC-LIVE-SNAPSHOT** -- the pruned version is precisely the version
  some still-active snapshot would read (its ``max(V ∩ V*)``).  Defense
  in depth over the lav bound: catches mistakes in the "keep the newest
  collectable version" rule even when the lav arithmetic is right.
* **GC-REMOVED-ACTIVE** -- a version belonging to a transaction the
  shadow still considers active vanished, and the writer is not that
  transaction rolling its own write back.
* **GC-CELL-DROP** -- a whole cell was deleted although a live snapshot
  (or any future one, when no transaction is active) would still read a
  non-tombstone version from it.

:class:`~repro.san.si.Sanitizer` runs these checks as its second pass,
after the version-chain pass and before its SI fold updates the shadow:
each write is compared against the shadow state from *before* it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.record import TOMBSTONE
from repro.san.shadow import ShadowCell, ShadowHistory, ref_latest_visible
from repro.san.violations import ViolationLog

if TYPE_CHECKING:
    from repro.san.si import Observation


class GCChecks:
    """Checks version pruning and cell drops against the shadow."""

    def __init__(self, log: ViolationLog, shadow: ShadowHistory) -> None:
        self.log = log
        self.shadow = shadow  # the Sanitizer's; never mutated here

    def check(self, ctx_key: int, observed: List[Observation]) -> None:
        """Every successful store-conditional write and cell delete."""
        for op, key, record, expected, ok, _version in observed:
            if not ok or expected is None:
                continue  # only a successful LL/SC write can prune
            if op == "write":
                self._check_prune(ctx_key, key, record, expected)
            elif op == "delete":
                self._check_cell_drop(ctx_key, key, expected)

    # -- version pruning -------------------------------------------------

    def _check_prune(self, ctx_key: int, key: Any, record: Any,
                     expected: int) -> None:
        shadow = self.shadow
        sc = shadow.cells.get(key)
        if sc is None or sc.cell_version != expected:
            return  # shadow not in sync with the overwritten state
        written = set(record.version_numbers())
        removed = set(sc.versions) - written
        if not removed:
            return
        view = shadow.current(ctx_key)
        writer_tid = view.tid if view is not None else None
        true_lav = shadow.true_lav()
        for tid in sorted(removed):
            if tid == writer_tid:
                continue  # the writer rolling back its own version
            owner = shadow.active.get(tid)
            if owner is not None:
                self.log.violation(
                    "GC-REMOVED-ACTIVE",
                    f"write to {key!r} removed version {tid}, which "
                    f"belongs to a still-active transaction (writer: "
                    f"{writer_tid})",
                    key=key, removed=tid, writer=writer_tid,
                )
                continue
            finished = shadow.finished.get(tid)
            if finished is not None and finished.outcome == "aborted":
                continue  # residue of an aborted txn; removal is cleanup
            if true_lav is not None and tid > true_lav:
                self.log.violation(
                    "GC-ABOVE-LAV",
                    f"write to {key!r} pruned committed version {tid} "
                    f"although the true lowest active version is "
                    f"{true_lav} -- an active snapshot may still need it",
                    key=key, removed=tid, true_lav=true_lav,
                    writer=writer_tid,
                )
            self._check_live_readers(key, sc, tid, writer_tid)

    def _check_live_readers(self, key: Any, sc: ShadowCell, removed: int,
                            writer_tid: Optional[int]) -> None:
        for view in self.shadow.active.values():
            if view.tainted or view.tid == writer_tid:
                continue
            visible = ref_latest_visible(sc.versions.keys(), view.base,
                                         view.bits)
            if visible == removed:
                self.log.violation(
                    "GC-LIVE-SNAPSHOT",
                    f"write to {key!r} pruned version {removed}, the "
                    f"exact version active tid {view.tid} (base "
                    f"{view.base}) reads from this record",
                    key=key, removed=removed, reader=view.tid,
                )
                return  # one live reader is proof enough per prune

    # -- whole-cell removal ----------------------------------------------

    def _check_cell_drop(self, ctx_key: int, key: Any,
                         expected: int) -> None:
        shadow = self.shadow
        sc = shadow.cells.get(key)
        if sc is None or sc.cell_version != expected:
            return
        view = shadow.current(ctx_key)
        writer_tid = view.tid if view is not None else None
        tids = set(sc.versions)
        if writer_tid is not None and tids == {writer_tid}:
            return  # rollback of this transaction's own fresh insert
        for reader in shadow.active.values():
            if reader.tainted or reader.tid == writer_tid:
                continue
            visible = ref_latest_visible(tids, reader.base, reader.bits)
            if visible is not None \
                    and sc.versions[visible] is not TOMBSTONE:
                self.log.violation(
                    "GC-CELL-DROP",
                    f"cell {key!r} deleted although active tid "
                    f"{reader.tid} still reads non-tombstone version "
                    f"{visible} from it",
                    key=key, reader=reader.tid, visible=visible,
                )
                return
        if not shadow.active and tids:
            newest = max(tids)
            if sc.versions[newest] is not TOMBSTONE:
                self.log.violation(
                    "GC-CELL-DROP",
                    f"cell {key!r} deleted although its newest "
                    f"version {newest} is live data every future "
                    f"snapshot would read",
                    key=key, newest=newest,
                )
