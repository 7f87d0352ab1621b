"""Shadow history: the sanitizers' independent model of the store.

The :class:`repro.san.si.Sanitizer` rebuilds, from the observed request
stream alone, what the data space *should* contain: which versions each
cell holds, which transactions are active/committed/aborted, and which
snapshot each transaction was handed.  SI axioms are then checked against
this shadow, never against the production data structures' own logic.

Crucially, snapshot visibility is **reimplemented here from the paper's
definition** (Section 4.2: ``V* = { x | x <= b or x in N }``, a read
returns ``max(V ∩ V*)``) using raw ``(base, bits)`` integers obtained via
:meth:`repro.core.snapshot.SnapshotDescriptor.as_pair`.  A bug in the
production ``contains`` / ``latest_visible`` therefore cannot hide from
its own checker -- the two implementations must agree on every read.

The shadow is *best-effort* by design: code paths that bypass the
dispatch pipeline (bulk load, recovery, replication to backups, shared
buffers serving reads from cache) are invisible.  Cells are adopted
lazily on first observation and re-adopted when the store's cell version
runs ahead of the shadow; both are counted as reconciliations, not
violations (see :class:`repro.san.violations.ViolationLog`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Payload marker for tombstone versions in the shadow (the production
#: TOMBSTONE sentinel is kept as-is when observed; this module only needs
#: identity comparisons, never isinstance checks, against it).


def visible_in(tid: int, base: int, bits: int) -> bool:
    """Reference implementation of tid ∈ V* (independent bit math)."""
    if tid <= base:
        return True
    return bool((bits >> (tid - base - 1)) & 1)


def ref_latest_visible(tids: Iterable[int], base: int, bits: int) -> Optional[int]:
    """Reference implementation of max(V ∩ V*), or None."""
    best: Optional[int] = None
    for tid in tids:
        if tid <= base:
            if best is None or tid > best:
                best = tid
        elif (bits >> (tid - base - 1)) & 1:
            if best is None or tid > best:
                best = tid
    return best


class ShadowCell:
    """What the shadow believes one data cell contains."""

    __slots__ = ("versions", "cell_version")

    def __init__(self, versions: Dict[int, Any], cell_version: int) -> None:
        #: tid -> payload object (payloads are immutable in the store, so
        #: retaining references is safe and costs nothing).
        self.versions = versions
        self.cell_version = cell_version

    def tids(self) -> Tuple[int, ...]:
        return tuple(self.versions.keys())

    def __repr__(self) -> str:
        return (
            f"ShadowCell(cv={self.cell_version}, "
            f"tids={sorted(self.versions)})"
        )


class TxnView:
    """Everything the shadow knows about one observed transaction."""

    __slots__ = ("tid", "base", "bits", "lav", "snapshot_obj", "pn_id",
                 "reads", "writes", "applied", "outcome", "tainted")

    def __init__(self, tid: int, base: int, bits: int, lav: int,
                 snapshot_obj: Any, pn_id: int) -> None:
        self.tid = tid
        self.base = base
        self.bits = bits
        self.lav = lav
        #: The production SnapshotDescriptor, retained *only* to be passed
        #: back into production visibility for the cross-check -- the
        #: shadow's own reasoning uses (base, bits).
        self.snapshot_obj = snapshot_obj
        self.pn_id = pn_id
        #: key -> tid of the version this transaction read (reference
        #: visibility verdict), for SSI wr/rw edges.
        self.reads: Dict[Any, Optional[int]] = {}
        #: keys this transaction successfully installed a version for.
        self.writes: Dict[Any, int] = {}  # key -> expected cell version
        #: keys whose store cell currently carries our version.
        self.applied: List[Any] = []
        self.outcome: Optional[str] = None  # None=active
        self.tainted = False

    def sees(self, tid: int) -> bool:
        return visible_in(tid, self.base, self.bits)

    def __repr__(self) -> str:
        return f"TxnView(tid={self.tid}, base={self.base})"


#: Bound on remembered finished transactions / per-key writer history.
#: The SSI dependency analysis only needs a recent window: anything older
#: than every active snapshot can no longer participate in a new cycle.
RECENT_WINDOW = 512


class ShadowHistory:
    """The independently maintained model the sanitizer checks against."""

    def __init__(self) -> None:
        self.cells: Dict[Any, ShadowCell] = {}
        self.active: Dict[int, TxnView] = {}
        self.finished: Dict[int, TxnView] = {}  # committed AND aborted
        self.finish_order: List[int] = []
        #: dispatch-context identity -> the transaction it is driving.
        #: Each driver creates one DispatchContext per concurrently
        #: running transaction script (the sim fabric per script, the
        #: direct driver per Dispatcher), which is what makes per-context
        #: attribution sound.
        self.by_ctx: Dict[int, TxnView] = {}
        #: key -> committed writers [(tid, base, bits)], recent window.
        self.key_writers: Dict[Any, List[Tuple[int, int, int]]] = {}

    # -- transaction lifecycle ------------------------------------------

    def begin(self, ctx_key: int, view: TxnView) -> Optional[TxnView]:
        """Register a started transaction; returns a displaced, still
        unfinished view if the context was already busy (attribution
        failure -- both views are tainted and stop being checked)."""
        displaced = self.by_ctx.get(ctx_key)
        if displaced is not None and displaced.outcome is None:
            displaced.tainted = True
            view.tainted = True
        else:
            displaced = None
        self.active[view.tid] = view
        self.by_ctx[ctx_key] = view
        return displaced

    def current(self, ctx_key: int) -> Optional[TxnView]:
        view = self.by_ctx.get(ctx_key)
        if view is not None and view.outcome is None:
            return view
        return None

    def finish(self, tid: int, outcome: str) -> Optional[TxnView]:
        view = self.active.pop(tid, None)
        if view is None:
            return None
        view.outcome = outcome
        self.finished[tid] = view
        self.finish_order.append(tid)
        if outcome == "committed":
            for key in view.writes:
                writers = self.key_writers.setdefault(key, [])
                writers.append((view.tid, view.base, view.bits))
                if len(writers) > RECENT_WINDOW:
                    del writers[0]
        while len(self.finish_order) > RECENT_WINDOW:
            old = self.finish_order.pop(0)
            self.finished.pop(old, None)
        return view

    def true_lav(self) -> Optional[int]:
        """Reference lowest-active-version: the minimum snapshot base of
        the transactions the shadow believes active (None = no active
        transaction, i.e. every version is collectable but the newest)."""
        if not self.active:
            return None
        return min(view.base for view in self.active.values())

    # -- cell bookkeeping -----------------------------------------------

    def adopt(self, key: Any, version_payloads: Dict[int, Any],
              cell_version: int) -> ShadowCell:
        sc = ShadowCell(dict(version_payloads), cell_version)
        self.cells[key] = sc
        return sc

    def drop(self, key: Any) -> None:
        """Forget a cell (batch partial-failure blind spot: some of the
        group's ops may have applied without an observable result)."""
        self.cells.pop(key, None)

    def __repr__(self) -> str:
        return (
            f"<ShadowHistory cells={len(self.cells)} "
            f"active={len(self.active)}>"
        )
