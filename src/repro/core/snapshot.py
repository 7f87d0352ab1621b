"""Snapshot descriptors and the committed-transaction set (Section 4.2).

A snapshot descriptor consists of a *base version* ``b`` -- meaning ``b``
and every earlier transaction has completed -- and a set ``N`` of newly
completed tids greater than ``b + 1``.  ``N`` is a bitset: bit ``i``
represents tid ``b + 1 + i``.  When ``b + 1`` completes, the base advances
until the next incomplete tid.

The valid version number set a transaction may access is::

    V* = { x | x <= b  or  x in N }

and a read returns the version ``v = max(V ∩ V*)`` of the record's version
set ``V``.

Aborted transactions also enter the set: their versions are physically
removed from the store *before* the commit manager is notified, so
treating them as "completed" is safe and keeps the base advancing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple


class SnapshotDescriptor:
    """Immutable snapshot: base version + bitset of newer completed tids."""

    __slots__ = ("base", "bits")

    def __init__(self, base: int = 0, bits: int = 0):
        # Normalize: bit 0 represents base+1; if it is set the base moves.
        # ``~bits & (bits + 1)`` isolates the lowest zero bit, so one
        # bit_length() gives the whole run of trailing ones at once
        # instead of shifting bit by bit.
        if bits & 1:
            run = (~bits & (bits + 1)).bit_length() - 1
            bits >>= run
            base += run
        self.base = base
        self.bits = bits

    # -- membership ---------------------------------------------------------

    def contains(self, tid: int) -> bool:
        """Is ``tid`` visible in this snapshot (tid ∈ V*)?

        The ``tid <= base`` comparison is the O(1) fast exit: in steady
        state almost every version a transaction reads is older than the
        snapshot base, so most calls never touch the bitset.
        """
        base = self.base
        if tid <= base:
            return True
        return bool(self.bits >> (tid - base - 1) & 1)

    __contains__ = contains

    def latest_visible(self, version_numbers: Iterable[int]) -> Optional[int]:
        """max(V ∩ V*) -- the version a transaction reads, or None."""
        base = self.base
        bits = self.bits
        best: Optional[int] = None
        for number in version_numbers:
            if best is None or number > best:
                if number <= base or bits >> (number - base - 1) & 1:
                    best = number
        return best

    # -- algebra --------------------------------------------------------------

    def issubset(self, other: "SnapshotDescriptor") -> bool:
        """True if every tid visible here is visible in ``other``.

        This is the buffer-validity test of Section 5.5.2 (V_tx ⊆ B).
        """
        if self.base > other.base:
            # Our contiguous prefix must be covered by other's bits.
            span = self.base - other.base
            prefix_mask = (1 << span) - 1
            if other.bits & prefix_mask != prefix_mask:
                return False
            shifted_other = other.bits >> span
        else:
            shifted_other = other.bits << (other.base - self.base)
            # tids in (self.base, other.base] are visible in other by base.
            shifted_other |= (1 << (other.base - self.base)) - 1
        return self.bits & ~shifted_other == 0

    def union(self, other: "SnapshotDescriptor") -> "SnapshotDescriptor":
        """Smallest snapshot containing both (used by commit-manager sync).

        Allocates only the result descriptor; mutable folds that need no
        descriptor at all go through :meth:`CommittedSet.merge_snapshot`.
        """
        if self.base >= other.base:
            high, low = self, other
        else:
            high, low = other, self
        merged_bits = low.bits >> (high.base - low.base) | high.bits
        if merged_bits == high.bits:
            return high  # low added nothing: reuse the descriptor
        return SnapshotDescriptor(high.base, merged_bits)

    def with_completed(self, tid: int) -> "SnapshotDescriptor":
        """Snapshot extended by one completed transaction."""
        if tid <= self.base:
            return self
        return SnapshotDescriptor(self.base, self.bits | 1 << (tid - self.base - 1))

    # -- introspection -----------------------------------------------------------

    def as_pair(self) -> Tuple[int, int]:
        """Read-only ``(base, bits)`` view for external observers.

        The sanitizers (:mod:`repro.san`) re-derive visibility from this
        pair with their own bit math, so a bug in :meth:`contains` /
        :meth:`latest_visible` cannot hide from its own checker.
        """
        return (self.base, self.bits)

    def newly_completed(self) -> List[int]:
        """The explicit members of N (completed tids above the base)."""
        out: List[int] = []
        bits = self.bits
        tid = self.base + 1
        while bits:
            if bits & 1:
                out.append(tid)
            bits >>= 1
            tid += 1
        return out

    def approx_size(self) -> int:
        return 16 + self.bits.bit_length() // 8

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SnapshotDescriptor)
            and self.base == other.base
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.base, self.bits))

    def __repr__(self) -> str:
        extras = self.newly_completed()
        shown = extras if len(extras) <= 6 else extras[:6] + ["..."]
        return f"Snapshot(base={self.base}, N={shown})"


class TxnStart:
    """What the commit manager returns from start(): (tid, snapshot, lav).

    ``range_refilled`` flags that serving this start required refilling
    the manager's tid range from the store counter; the simulation driver
    charges the extra round trip when it is set.  ``isolation`` is the
    issuing manager's mode (``CommitManager.isolation_name``): the
    transaction runs under the mode its commits will be validated in.
    """

    __slots__ = ("tid", "snapshot", "lav", "range_refilled", "isolation")

    def __init__(self, tid: int, snapshot: SnapshotDescriptor, lav: int):
        self.tid = tid
        self.snapshot = snapshot
        self.lav = lav
        self.range_refilled = False
        self.isolation = "si"

    def __repr__(self) -> str:
        return f"TxnStart(tid={self.tid}, lav={self.lav}, {self.snapshot!r})"


class CommittedSet:
    """Mutable committed-transaction set maintained by a commit manager."""

    __slots__ = ("base", "bits")

    def __init__(self, base: int = 0, bits: int = 0):
        self.base = base
        self.bits = bits
        self._normalize()

    def _normalize(self) -> None:
        bits = self.bits
        if bits & 1:
            # Same trailing-ones trick as SnapshotDescriptor: advance the
            # base over the whole contiguous run in one step.
            run = (~bits & (bits + 1)).bit_length() - 1
            self.bits = bits >> run
            self.base += run

    def mark_completed(self, tid: int) -> None:
        """Record that ``tid`` committed or aborted (mutates in place)."""
        base = self.base
        if tid <= base:
            return
        bits = self.bits | 1 << (tid - base - 1)
        if bits & 1:
            run = (~bits & (bits + 1)).bit_length() - 1
            bits >>= run
            self.base = base + run
        self.bits = bits

    def merge_snapshot(self, snapshot: SnapshotDescriptor) -> None:
        """Fold another commit manager's published view into this set.

        A mutable fold: no intermediate descriptors are allocated, unlike
        ``self.snapshot().union(snapshot)``.
        """
        other_base = snapshot.base
        if self.base >= other_base:
            self.bits |= snapshot.bits >> (self.base - other_base)
        else:
            self.bits = self.bits >> (other_base - self.base) | snapshot.bits
            self.base = other_base
        self._normalize()

    def contains(self, tid: int) -> bool:
        if tid <= self.base:
            return True
        return bool(self.bits >> (tid - self.base - 1) & 1)

    def snapshot(self) -> SnapshotDescriptor:
        return SnapshotDescriptor(self.base, self.bits)

    def __repr__(self) -> str:
        return f"CommittedSet(base={self.base})"
