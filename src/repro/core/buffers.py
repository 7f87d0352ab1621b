"""The three buffering strategies of Section 5.5.

Shared data restricts caching: a record can be changed by a remote PN at
any time, so a buffer entry is only usable when it is provably recent
enough for the reading transaction's snapshot.  The paper proposes three
strategies, all implemented here behind one interface:

* :class:`TransactionBuffer` (TB) -- no PN-wide cache; every transaction
  keeps its private read cache (which all strategies provide, since a
  transaction may re-access a record).
* :class:`SharedRecordBuffer` (SB) -- a PN-wide cache; an entry carries a
  version-number set ``B`` and may serve transaction ``T`` when
  ``V_T ⊆ B``.  Misses refresh ``B`` to ``V_max``, the snapshot of the
  most recently started transaction on the PN.
* :class:`SharedBufferVersionSync` (SBVS) -- extends SB with version-set
  cells in the *store*: a small get can prove a buffered record valid
  without re-transferring it.  Records are grouped into cache units that
  share one version-set cell.

Every method that touches the store is a generator yielding storage
requests (see :mod:`repro.effects`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import effects
from repro.core.record import VersionedRecord
from repro.core.snapshot import SnapshotDescriptor
from repro.core.spaces import DATA_SPACE, VSET_SPACE, vset_key

#: (record-or-None, cell_version) -- what a read produces.
ReadResult = Tuple[Optional[VersionedRecord], int]


class BufferStats:
    """Hit/miss accounting, reported by the Figure 11 experiment."""

    __slots__ = ("lookups", "hits", "vset_checks", "vset_valid", "fetches", "puts")

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0
        self.vset_checks = 0
        self.vset_valid = 0
        self.fetches = 0
        self.puts = 0

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.vset_valid) / self.lookups


class BufferingStrategy:
    """Interface shared by the three strategies."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = BufferStats()
        # The PN updates this with the snapshot of every starting
        # transaction; it is the V_max of Section 5.5.2.
        self.latest_snapshot = SnapshotDescriptor(0, 0)

    def observe_snapshot(self, snapshot: SnapshotDescriptor) -> None:
        if snapshot.base >= self.latest_snapshot.base:
            self.latest_snapshot = snapshot

    def read_records(
        self, snapshot: SnapshotDescriptor, keys: List[Any]
    ) -> Generator:
        """Fetch ``keys`` (deduplicated, batched); returns
        ``{key: (record, cell_version)}``."""
        raise NotImplementedError

    def note_applied(
        self, tid: int, key: Any, record: VersionedRecord, cell_version: int
    ) -> Generator:
        """Write-through notification after a successful LL/SC apply."""
        raise NotImplementedError

    def invalidate(self, key: Any) -> None:
        """Drop any buffered state for ``key`` (used after rollbacks)."""


class TransactionBuffer(BufferingStrategy):
    """TB: no shared buffer; always fetch from the storage system."""

    name = "tb"

    def read_records(self, snapshot, keys):
        self.stats.lookups += len(keys)
        self.stats.fetches += len(keys)
        results = yield effects.multi_get(DATA_SPACE, keys)
        return dict(zip(keys, results))

    def note_applied(self, tid, key, record, cell_version):
        return
        yield  # pragma: no cover - makes this a generator


class SharedRecordBuffer(BufferingStrategy):
    """SB: PN-wide record cache guarded by version-number sets."""

    name = "sb"

    def __init__(self, capacity: int = 100_000):
        super().__init__()
        self.capacity = capacity
        # key -> [record, cell_version, B]
        self._entries: "OrderedDict[Any, List[Any]]" = OrderedDict()

    def _probe(
        self, snapshot: SnapshotDescriptor, keys: List[Any]
    ) -> Tuple[Dict[Any, ReadResult], List[Any]]:
        """Condition 1 (V_tx ⊆ B -- the buffer is recent enough) over
        ``keys``: returns ``(found, missing)``."""
        self.stats.lookups += len(keys)
        found: Dict[Any, ReadResult] = {}
        missing: List[Any] = []
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None and snapshot.issubset(entry[2]):
                self._entries.move_to_end(key)
                found[key] = (entry[0], entry[1])
                self.stats.hits += 1
            else:
                missing.append(key)
        return found, missing

    def read_records(self, snapshot, keys):
        found, missing = self._probe(snapshot, keys)
        if missing:
            # Condition 2: fetch from the store; B becomes V_max.
            self.stats.fetches += len(missing)
            validity = self.latest_snapshot
            results = yield effects.multi_get(DATA_SPACE, missing)
            for key, (record, cell_version) in zip(missing, results):
                self._insert(key, record, cell_version, validity)
                found[key] = (record, cell_version)
        return found

    def note_applied(self, tid, key, record, cell_version):
        # Write-through: B = V_max ∪ {tid}.  V_max is valid because had a
        # transaction in it changed the record, our LL/SC would have failed.
        validity = self.latest_snapshot.with_completed(tid)
        self._insert(key, record, cell_version, validity)
        self.stats.puts += 1
        return
        yield  # pragma: no cover - makes this a generator

    def invalidate(self, key):
        self._entries.pop(key, None)

    def _insert(self, key, record, cell_version, validity) -> None:
        self._entries[key] = [record, cell_version, validity]
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)  # LRU eviction


class SharedBufferVersionSync(SharedRecordBuffer):
    """SBVS: shared buffer whose validity is synchronized via the store.

    Each cache unit (``unit_size`` consecutive rids of a table) has a
    version-set cell in the ``vset`` space.  A reader whose condition 1
    fails retrieves the small cell: if it equals the buffered set the
    record itself need not be re-transferred.  A writer updates the cell,
    which invalidates every buffered record of the unit on other PNs.
    """

    def __init__(self, unit_size: int = 10, capacity: int = 100_000):
        super().__init__(capacity)
        self.unit_size = unit_size
        self.name = f"sbvs{unit_size}"
        # unit -> set of buffered keys, for local unit invalidation
        self._unit_members: Dict[Any, set] = {}

    def _unit_of(self, key: Any) -> Any:
        table_id, rid = key
        return vset_key(table_id, rid, self.unit_size)

    def read_records(self, snapshot, keys):
        found, unverified = self._probe(snapshot, keys)
        if not unverified:
            return found

        # Condition 2: fetch the (small) version-set cells.
        units = []
        seen_units = set()
        for key in unverified:
            unit = self._unit_of(key)
            if unit not in seen_units:
                seen_units.add(unit)
                units.append(unit)
        self.stats.vset_checks += len(units)
        vset_results = yield effects.multi_get(VSET_SPACE, units)
        stored_sets = {
            unit: (value if value is not None else SnapshotDescriptor(0, 0))
            for unit, (value, _version) in zip(units, vset_results)
        }

        refetch: List[Any] = []
        for key in unverified:
            stored = stored_sets[self._unit_of(key)]
            entry = self._entries.get(key)
            if entry is not None and entry[2] == stored:
                # Condition 2a: B' == B, the buffered record is still valid.
                found[key] = (entry[0], entry[1])
                self.stats.vset_valid += 1
            else:
                refetch.append(key)

        if refetch:
            # Condition 2b: re-fetch and adopt B' as the validity set.
            self.stats.fetches += len(refetch)
            results = yield effects.multi_get(DATA_SPACE, refetch)
            for key, (record, cell_version) in zip(refetch, results):
                self._insert_unit(key, record, cell_version,
                                  stored_sets[self._unit_of(key)])
                found[key] = (record, cell_version)
        return found

    def note_applied(self, tid, key, record, cell_version):
        # Update the record's unit cell so other PNs notice, then install
        # the written record locally.  Every other buffered record of the
        # unit is invalidated (their B no longer matches the stored cell).
        new_set = self.latest_snapshot.with_completed(tid)
        unit = self._unit_of(key)
        yield effects.Put(VSET_SPACE, unit, new_set)
        self.stats.puts += 1
        for member in list(self._unit_members.get(unit, ())):
            if member != key:
                self._entries.pop(member, None)
        self._unit_members[unit] = {key}
        self._insert_unit(key, record, cell_version, new_set)

    def invalidate(self, key):
        super().invalidate(key)
        unit = self._unit_of(key)
        members = self._unit_members.get(unit)
        if members is not None:
            members.discard(key)

    def _insert_unit(self, key, record, cell_version, validity) -> None:
        self._insert(key, record, cell_version, validity)
        self._unit_members.setdefault(self._unit_of(key), set()).add(key)


def make_strategy(name: str, **kwargs: Any) -> BufferingStrategy:
    """Factory used by experiment configs: tb / sb / sbvs10 / sbvs1000."""
    lowered = name.lower()
    if lowered == "tb":
        return TransactionBuffer()
    if lowered == "sb":
        return SharedRecordBuffer(**kwargs)
    if lowered.startswith("sbvs"):
        unit = int(lowered[4:]) if len(lowered) > 4 else 10
        return SharedBufferVersionSync(unit_size=unit, **kwargs)
    raise ValueError(f"unknown buffering strategy {name!r}")
