"""The commit manager service (Section 4.2).

A commit manager hands a starting transaction three things: a system-wide
unique tid, a snapshot descriptor, and the lowest active version number
(lav).  Under the paper's protocol (snapshot isolation) it is
deliberately lightweight -- it performs *no* commit validation
(conflicts are detected by LL/SC in the storage layer).  Under the
read-validating isolation protocols (WSI/SSI, ``repro.core.isolation``)
it additionally serves ``ValidateCommit`` requests against a shared
validator object; plain SI deployments leave ``validator`` unset and pay
nothing.

Several commit managers can run in parallel:

* tid uniqueness comes from an atomically incremented counter in the
  storage system; each manager acquires a continuous *range* of tids
  (e.g. 256) and assigns them on demand, so the counter is touched rarely;
* the snapshot (set of completed transactions) is synchronized through the
  store: in short intervals each manager writes its view and reads the
  others'.  Views are therefore delayed by at most the sync interval,
  which is legitimate (slightly older snapshots only raise the conflict
  probability, Section 6.3.3).

Atomicity contract (checked by ``repro-lint``, RA rules): the
completed-set / stripe-cursor and active-base / active-PN fields are
``INVARIANT_PAIRS`` -- their updaters are deliberately synchronous
(no yield between the paired writes, RA003), peer-state absorption must
not re-enter the event loop per peer (RA002), and a validator that
registers a committer must release it on abort via ``on_aborted``
(RA005).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import effects
from repro.core.snapshot import CommittedSet, SnapshotDescriptor, TxnStart
from repro.core.spaces import META_SPACE
from repro.errors import InvalidState

#: Storage key of the global tid counter.
TID_COUNTER_KEY = ("counter", "tid")


def _state_key(cm_id: int) -> Tuple[str, int]:
    return ("cm_state", cm_id)


class CommitManager:
    """One commit manager instance.

    ``store_execute`` is a callable executing a storage request
    synchronously (state-wise); the driver running the manager accounts
    for the time those requests take.
    """

    def __init__(
        self,
        cm_id: int,
        store_execute: Callable[[effects.Request], Any],
        tid_range_size: int = 256,
        interleaved: bool = False,
        n_managers: int = 1,
        validator: Optional[Any] = None,
    ):
        """``interleaved=True`` enables the tid scheme the paper lists as
        near-future work (Section 4.2, citing [58]): instead of acquiring
        continuous ranges from the shared counter, manager ``cm_id`` of
        ``n_managers`` owns the residue class ``tid ≡ cm_id + 1 (mod n)``.
        Uniqueness needs no shared counter at all, and tids from
        different managers stay finely interleaved, which keeps snapshots
        fresher (lower abort rates) than coarse continuous ranges.  The
        price: an idle manager must *retire* its unused tids during
        synchronization so the global base version can keep advancing.
        """
        if tid_range_size < 1:
            raise InvalidState("tid range size must be >= 1")
        if interleaved and (cm_id < 0 or cm_id >= n_managers):
            raise InvalidState("interleaved mode needs 0 <= cm_id < n_managers")
        self.cm_id = cm_id
        self.store_execute = store_execute
        self.tid_range_size = tid_range_size
        self.interleaved = interleaved
        self.n_managers = n_managers
        self._next_stripe = 0  # interleaved mode: index into our residue class
        self.completed = CommittedSet()
        # active transactions started through this manager
        self._active_base: Dict[int, int] = {}   # tid -> snapshot base
        self._active_pn: Dict[int, int] = {}     # tid -> processing node id
        self._next_tid = 1
        self._range_end = 0                      # exhausted: forces refill
        self.last_assigned_tid = 0
        self._peer_lav: Dict[int, int] = {}      # cm_id -> published lav
        self._peer_last_tid: Dict[int, int] = {}
        self.starts_served = 0
        self.range_refills = 0
        self.sync_rounds = 0
        # Read-validation state for the WSI/SSI isolation protocols
        # (repro.core.isolation.validation); None under plain SI.  All
        # managers of a deployment share ONE validator instance.
        self.validator = validator
        self.validations = 0
        self.validation_aborts = 0

    # -- tid ranges -----------------------------------------------------------

    def _refill_tid_range(self) -> None:
        top = self.store_execute(
            effects.Increment(META_SPACE, TID_COUNTER_KEY, self.tid_range_size)
        )
        self._next_tid = top - self.tid_range_size + 1
        self._range_end = top
        self.range_refills += 1

    # -- the three interface calls of Section 4.2 ------------------------------

    def _stripe_tid(self) -> int:
        """Interleaved mode: the next unassigned tid of our residue class."""
        return self._next_stripe * self.n_managers + self.cm_id + 1

    def start(self, pn_id: int = -1) -> TxnStart:
        """start() -> (tid, snapshot descriptor, lav)."""
        refilled = False
        if self.interleaved:
            tid = self._stripe_tid()
            self._next_stripe += 1
        else:
            if self._next_tid > self._range_end:
                self._refill_tid_range()
                refilled = True
            tid = self._next_tid
            self._next_tid += 1
        self.last_assigned_tid = max(self.last_assigned_tid, tid)
        snapshot = self.completed.snapshot()
        self._active_base[tid] = snapshot.base
        self._active_pn[tid] = pn_id
        self.starts_served += 1
        start = TxnStart(tid, snapshot, self.lowest_active_version())
        start.range_refilled = refilled  # timing hint for the sim driver
        start.isolation = self.isolation_name
        return start

    def set_committed(self, tid: int) -> None:
        """setCommitted(tid): the transaction's updates are applied."""
        self._finish(tid)

    def set_aborted(self, tid: int) -> None:
        """setAborted(tid): updates were rolled back before this call, so
        the tid can safely enter the completed set."""
        if self.validator is not None:
            # The tid may have validated and registered before failing at
            # LL/SC or index maintenance: un-register it.
            self.validator.on_aborted(tid)
        self._finish(tid)

    def validate_commit(self, request: effects.ValidateCommit) -> Any:
        """Serve a WSI/SSI commit validation (``ValidateCommit``)."""
        if self.validator is None:
            raise InvalidState(
                f"commit manager {self.cm_id} runs plain SI; "
                "no validator is attached"
            )
        self.validations += 1
        verdict = self.validator.validate_and_register(
            request.tid,
            request.snapshot,
            request.read_keys,
            request.write_keys,
            self.lowest_active_version(),
        )
        if not verdict.ok:
            self.validation_aborts += 1
        return verdict

    def serve(self, request: effects.CommitManagerRequest,
              pn_id: int = -1) -> Any:
        """Serve one commit-manager request: the one binding of the four
        request classes to the operations above, called by the direct
        dispatcher and the simulated fabric alike."""
        kind = request.kind
        if kind == effects.KIND_CM_START:
            return self.start(pn_id)
        if kind == effects.KIND_CM_COMMITTED:
            self.set_committed(request.tid)
            return None
        if kind == effects.KIND_CM_ABORTED:
            self.set_aborted(request.tid)
            return None
        return self.validate_commit(request)

    @property
    def isolation_name(self) -> str:
        """The mode this manager validates ("si" without a validator,
        else the validator's mode); every ``start()`` hands it to the
        transaction."""
        return "si" if self.validator is None else self.validator.mode

    def _finish(self, tid: int) -> None:
        self.completed.mark_completed(tid)
        self._active_base.pop(tid, None)
        self._active_pn.pop(tid, None)

    # -- lav --------------------------------------------------------------------

    def local_lav(self) -> int:
        """Lowest base version among transactions active on this manager."""
        if self._active_base:
            return min(self._active_base.values())
        return self.completed.base

    def lowest_active_version(self) -> int:
        """Global lav: the minimum over this manager and its peers."""
        lav = self.local_lav()
        for peer_lav in self._peer_lav.values():
            if peer_lav < lav:
                lav = peer_lav
        return lav

    # -- multi-manager synchronization (Section 4.2) ------------------------------

    def publish_state(self) -> None:
        """Write this manager's view to the store for peers to read."""
        snapshot = self.completed.snapshot()
        self.store_execute(
            effects.Put(
                META_SPACE,
                _state_key(self.cm_id),
                (snapshot.base, snapshot.bits, self.local_lav(), self.last_assigned_tid),
            )
        )

    def absorb_peers(self, peer_ids: List[int]) -> None:
        """Read peers' published views and merge them into ours."""
        for peer_id in peer_ids:
            if peer_id == self.cm_id:
                continue
            value, _version = self.store_execute(
                effects.Get(META_SPACE, _state_key(peer_id))
            )
            if value is None:
                continue
            base, bits, peer_lav, peer_last_tid = value
            self.completed.merge_snapshot(SnapshotDescriptor(base, bits))
            self._peer_lav[peer_id] = peer_lav
            self._peer_last_tid[peer_id] = peer_last_tid

    def sync(self, peer_ids: List[int]) -> None:
        """One synchronization round: absorb peers, retire idle stripe
        tids (interleaved mode), then publish the freshest view."""
        self.sync_rounds += 1
        self.absorb_peers(peer_ids)
        if self.interleaved:
            # Retire the tids peers have already raced past, so the global
            # base can advance even when this manager is (relatively) idle.
            self._skip_stripe_below(
                max(self._peer_last_tid.values(), default=0))
        self.publish_state()

    def _skip_stripe_below(self, bound: int) -> None:
        """Interleaved mode: complete every unassigned tid of our residue
        class below ``bound`` and move the stripe cursor past it, so the
        tid is never handed to a transaction and the global base version
        can advance over it."""
        while (tid := self._stripe_tid()) < bound:
            self.completed.mark_completed(tid)
            self._next_stripe += 1

    # -- read-only introspection (sanitizers, reports) -----------------------------

    def active_transactions(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(tid, snapshot_base, pn_id)`` for every transaction
        this manager currently considers active.  Purely observational --
        the sanitizers use it to bound the true lowest active version."""
        return sorted(
            (tid, base, self._active_pn.get(tid, -1))
            for tid, base in self._active_base.items()
        )

    def completed_view(self) -> SnapshotDescriptor:
        """An immutable copy of the completed set (safe to retain)."""
        return self.completed.snapshot()

    # -- recovery support ----------------------------------------------------------

    def active_tids_of(self, pn_id: int) -> List[int]:
        """Transactions a (possibly failed) processing node has in flight."""
        return [tid for tid, owner in self._active_pn.items() if owner == pn_id]

    def highest_known_tid(self) -> int:
        """Upper bound on assigned tids (this manager and synced peers)."""
        peers = max(self._peer_last_tid.values(), default=0)
        return max(self.last_assigned_tid, peers)

    @classmethod
    def recover(
        cls,
        cm_id: int,
        store_execute: Callable[[effects.Request], Any],
        peer_ids: List[int],
        tid_range_size: int = 256,
        interleaved: bool = False,
        n_managers: int = 1,
        validator: Optional[Any] = None,
    ) -> "CommitManager":
        """Start a replacement manager, restoring state from the store.

        The tid counter guarantees fresh tids (in interleaved mode the
        stripe cursor is advanced past every tid the failed manager may
        have assigned); published peer state (or the failed manager's own
        last publication) restores the snapshot.  ``validator`` re-attaches
        the deployment's shared WSI/SSI validation state -- pass a *fresh*
        validator with :meth:`~repro.core.isolation.validation.CommitValidator.mark_recovered`
        applied when the failed manager was the only holder of it.
        """
        manager = cls(cm_id, store_execute, tid_range_size,
                      interleaved=interleaved, n_managers=n_managers,
                      validator=validator)
        value, _version = store_execute(effects.Get(META_SPACE, _state_key(cm_id)))
        if value is not None:
            base, bits, _lav, last_tid = value
            manager.completed.merge_snapshot(SnapshotDescriptor(base, bits))
            manager.last_assigned_tid = last_tid
        manager.absorb_peers(peer_ids)
        if interleaved:
            # The crashed predecessor may have assigned any tid up to and
            # including the highest known one: handing one out again
            # would violate tid uniqueness.
            manager._skip_stripe_below(manager.highest_known_tid() + 1)
        return manager

    def __repr__(self) -> str:
        return (
            f"<CommitManager {self.cm_id} base={self.completed.base} "
            f"active={len(self._active_base)}>"
        )
