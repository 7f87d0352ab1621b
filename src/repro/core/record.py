"""Multi-version records stored as single key-value pairs (Section 5.1).

Every relational row is one key-value pair: the key is the record id
(rid), the value a serialized set of all versions of the record.  One read
fetches every version; one conditional write applies an update *and*
detects conflicts.  This is the paper's central storage-granularity
decision ("minimize network requests over network traffic").

Records are immutable: transactions build new record values and install
them with LL/SC, so a record object can safely live in shared buffers and
in the store at the same time.

Storage layout: a record keeps its versions as two parallel tuples --
``tids`` and ``payloads``, both newest first -- so the one visibility scan
(``visible_index``) and the one GC walk (``_survivors``) read flat memory
instead of chasing one ``Version`` object per entry.
The slab layout is an implementation detail: the public API (``versions``,
``latest_visible``, ``with_version``, ...) is unchanged, and builds
:class:`Version` wrappers on demand for the sanitizers, tests and
``repr``; a record keeps none.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.snapshot import SnapshotDescriptor
from repro.errors import InvalidState
from repro.store.cell import approx_size


class _Tombstone:
    """Sentinel payload marking a deleted version."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()


class Version:
    """One version of a record: the creating tid and the row payload.

    ``payload`` is a tuple of column values, or :data:`TOMBSTONE` when the
    version represents a deletion.
    """

    __slots__ = ("tid", "payload")

    def __init__(self, tid: int, payload):
        self.tid = tid
        self.payload = payload

    @property
    def is_tombstone(self) -> bool:
        return self.payload is TOMBSTONE

    def __repr__(self) -> str:
        return f"Version(v{self.tid}, {self.payload!r})"


class VersionedRecord:
    """An immutable set of versions, newest first.

    ``tids`` and ``payloads`` are the parallel slab tuples (read-only;
    never mutate them).  Hot readers use :meth:`visible_index` plus a
    direct ``payloads[index]`` load; everything else goes through the
    Version-object API below.
    """

    __slots__ = ("tids", "payloads", "_size")

    def __init__(self, versions: Iterable[Version]):
        ordered = sorted(versions, key=lambda version: version.tid, reverse=True)
        self.tids = tuple(version.tid for version in ordered)
        self.payloads = tuple(version.payload for version in ordered)
        self._size = -1

    @classmethod
    def _from_slabs(
        cls, tids: Tuple[int, ...], payloads: Tuple[object, ...]
    ) -> "VersionedRecord":
        """Internal: wrap already newest-first parallel tuples."""
        record = object.__new__(cls)
        record.tids = tids
        record.payloads = payloads
        record._size = -1
        return record

    @classmethod
    def initial(cls, tid: int, payload) -> "VersionedRecord":
        return cls._from_slabs((tid,), (payload,))

    @classmethod
    def initial_many(
        cls, tid: int, payloads: Iterable[object]
    ) -> List["VersionedRecord"]:
        """One :meth:`initial` record per payload; the records share one
        ``tids`` tuple (the bulk loader's records, all created by ``tid``)."""
        tids = (tid,)
        from_slabs = cls._from_slabs
        return [from_slabs(tids, (payload,)) for payload in payloads]

    # -- reads -----------------------------------------------------------------

    @property
    def versions(self) -> Tuple[Version, ...]:
        """Version-object view of the slabs, built on each call."""
        return tuple(map(Version, self.tids, self.payloads))

    def version_numbers(self) -> Tuple[int, ...]:
        return self.tids

    def visible_index(self, snapshot: SnapshotDescriptor) -> int:
        """Index into ``tids``/``payloads`` of the version the snapshot
        reads -- the maximum visible tid -- or ``-1`` when nothing is
        visible (Section 4.2).

        The one visibility scan: every reader (transaction reads, storage
        pushdown, table scans, the sanitizers' reference check) resolves
        a snapshot through this function.
        """
        tids = self.tids
        if not tids:
            return -1
        base = snapshot.base
        if tids[0] <= base:
            # Short-circuit: the newest version predates the snapshot base,
            # so it is visible and by ordering it is the maximum.
            return 0
        bits = snapshot.bits
        index = 0
        for tid in tids:
            if tid <= base or bits >> (tid - base - 1) & 1:
                return index
            index += 1
        return -1

    def visible_payload(self, snapshot: SnapshotDescriptor) -> Optional[object]:
        """The payload the snapshot reads, or ``None`` when nothing is
        visible *or* the visible version is a tombstone.

        For callers that only want live row data (reads, scans); callers
        that must distinguish "deleted" from "absent" use
        ``visible_index`` or ``latest_visible`` instead.
        """
        index = self.visible_index(snapshot)
        if index < 0:
            return None
        payload = self.payloads[index]
        return None if payload is TOMBSTONE else payload

    def latest_visible(self, snapshot: SnapshotDescriptor) -> Optional[Version]:
        """The version the snapshot reads, as a :class:`Version`.

        Returns ``None`` when no version is visible; a visible tombstone is
        returned as-is (callers treat it as "record deleted").  Each call
        builds a new wrapper.
        """
        index = self.visible_index(snapshot)
        if index < 0:
            return None
        return Version(self.tids[index], self.payloads[index])

    def get(self, tid: int) -> Optional[Version]:
        try:
            index = self.tids.index(tid)
        except ValueError:
            return None
        return Version(tid, self.payloads[index])

    @property
    def newest_tid(self) -> int:
        tids = self.tids
        return tids[0] if tids else 0

    # -- writes (all return new records) -------------------------------------------

    def with_version(self, version: Version) -> "VersionedRecord":
        """Insert ``version`` into the (already sorted) slabs.

        A single scan finds the insertion point -- usually index 0, since
        new versions almost always carry the highest tid -- instead of
        re-sorting the whole set on every write.
        """
        tid = version.tid
        tids = self.tids
        index = len(tids)
        for position, existing in enumerate(tids):  # newest first
            if existing == tid:
                raise InvalidState(f"record already has version {tid}")
            if existing < tid:
                index = position
                break
        return VersionedRecord._from_slabs(
            tids[:index] + (tid,) + tids[index:],
            self.payloads[:index] + (version.payload,) + self.payloads[index:],
        )

    def updated(self, tid: int, payload, lav: int) -> "VersionedRecord":
        """``collect_garbage(lav)`` + prepend of a new newest version, fused.

        The commit path installs exactly this shape -- the new tid is a
        fresh commit timestamp, so it exceeds every existing tid -- and
        the fused form allocates no intermediate record.  Falls back to
        the two-step path when the tid is not the newest (which also
        raises on duplicates, matching :meth:`with_version`).
        """
        tids = self.tids
        if tids and tids[0] >= tid:
            return self.collect_garbage(lav).with_version(Version(tid, payload))
        tids, payloads = self._survivors(lav)
        return VersionedRecord._from_slabs((tid,) + tids, (payload,) + payloads)

    def without_version(self, tid: int) -> "VersionedRecord":
        try:
            index = self.tids.index(tid)
        except ValueError:
            return self
        return VersionedRecord._from_slabs(
            self.tids[:index] + self.tids[index + 1:],
            self.payloads[:index] + self.payloads[index + 1:],
        )

    # -- garbage collection (Section 5.4) --------------------------------------------

    def collectable_versions(self, lav: int) -> List[int]:
        """G = { x ∈ C | x != max(C) } with C = { x ∈ V | x <= lav }.

        The newest globally-visible version always survives so at least
        one version of the record remains.
        """
        candidates = [tid for tid in self.tids if tid <= lav]
        if len(candidates) <= 1:
            return []
        return candidates[1:]  # newest first: candidates[0] == max(C)

    def _survivors(self, lav: int) -> Tuple[Tuple[int, ...], Tuple[object, ...]]:
        """The slabs without G -- ``self``'s own tuples when G is empty.

        G comes from :meth:`collectable_versions`, so that definition
        stays the single source: a (deliberately) broken one propagates
        to every GC path, which the GC sanitizer's seeded-mutation tests
        rely on.
        """
        garbage = self.collectable_versions(lav)
        if not garbage:
            return self.tids, self.payloads
        drop = set(garbage)
        payloads = self.payloads
        keep_tids = []
        keep_payloads = []
        for position, existing in enumerate(self.tids):
            if existing not in drop:
                keep_tids.append(existing)
                keep_payloads.append(payloads[position])
        return tuple(keep_tids), tuple(keep_payloads)

    def collect_garbage(self, lav: int) -> "VersionedRecord":
        """Drop every version in G; may return ``self`` unchanged."""
        tids, payloads = self._survivors(lav)
        if tids is self.tids:
            return self
        return VersionedRecord._from_slabs(tids, payloads)

    def fully_deleted(self, lav: int) -> bool:
        """True when the record is just a tombstone no snapshot older than
        ``lav`` can resurrect -- the cell itself may then be removed."""
        live = self.collect_garbage(lav)
        tombstone = TOMBSTONE
        return all(payload is tombstone for payload in live.payloads)

    # -- sizing -----------------------------------------------------------------

    def approx_size(self) -> int:
        if self._size < 0:
            total = 8
            for payload in self.payloads:
                # 8 per version header, +1 for a tombstone marker or the
                # serialized payload.
                total += 9 if payload is TOMBSTONE else 8 + approx_size(payload)
            self._size = total
        return self._size

    def __len__(self) -> int:
        return len(self.tids)

    def __repr__(self) -> str:
        return f"VersionedRecord({list(self.versions)!r})"
