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
requests (see :mod:`repro.effects`).  A read returns two columns in key
order, ``(records, cell_versions)``, as the store's columnar read does,
and a shared buffer keeps its entries as parallel per-key columns: no
read leaves a tuple or list per key behind.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import effects
from repro.core.record import VersionedRecord
from repro.core.snapshot import SnapshotDescriptor
from repro.core.spaces import DATA_SPACE, VSET_SPACE, vset_key

#: (records, cell_versions) in key order -- what a read produces; a
#: missing record reads as (None, 0).
ReadColumns = Tuple[List[Optional[VersionedRecord]], List[int]]


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
        """Fetch ``keys`` (deduplicated, batched); returns the
        :data:`ReadColumns` of ``keys``."""
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
        return (yield effects.multi_get(DATA_SPACE, keys))

    def note_applied(self, tid, key, record, cell_version):
        return
        yield  # pragma: no cover - makes this a generator


class SharedRecordBuffer(BufferingStrategy):
    """SB: PN-wide record cache guarded by version-number sets."""

    name = "sb"

    def __init__(self, capacity: int = 100_000):
        super().__init__()
        self.capacity = capacity
        # Parallel per-key columns: the buffered record (in LRU order),
        # its cell version and its validity set B.
        self._records: "OrderedDict[Any, Optional[VersionedRecord]]" = (
            OrderedDict()
        )
        self._versions: Dict[Any, int] = {}
        self._validity: Dict[Any, SnapshotDescriptor] = {}

    def _probe(
        self, snapshot: SnapshotDescriptor, keys: List[Any]
    ) -> Tuple[List[Optional[VersionedRecord]], List[int], List[int]]:
        """Condition 1 (V_tx ⊆ B -- the buffer is recent enough) over
        ``keys``: returns the read columns with every hit filled in, and
        the positions of the keys that missed."""
        count = len(keys)
        self.stats.lookups += count
        records: List[Optional[VersionedRecord]] = [None] * count
        versions = [0] * count
        missing: List[int] = []
        buffered = self._records
        validity = self._validity
        for position, key in enumerate(keys):
            valid = validity.get(key)
            if valid is not None and snapshot.issubset(valid):
                buffered.move_to_end(key)
                records[position] = buffered[key]
                versions[position] = self._versions[key]
            else:
                missing.append(position)
        self.stats.hits += count - len(missing)
        return records, versions, missing

    def read_records(self, snapshot, keys):
        records, versions, missing = self._probe(snapshot, keys)
        if missing:
            # Condition 2: fetch from the store; B becomes V_max.
            self.stats.fetches += len(missing)
            validity = self.latest_snapshot
            fetched, fetched_versions = yield effects.multi_get(
                DATA_SPACE, [keys[position] for position in missing]
            )
            for position, record, cell_version in zip(
                missing, fetched, fetched_versions
            ):
                self._insert(keys[position], record, cell_version, validity)
                records[position] = record
                versions[position] = cell_version
        return records, versions

    def note_applied(self, tid, key, record, cell_version):
        # Write-through: B = V_max ∪ {tid}.  V_max is valid because had a
        # transaction in it changed the record, our LL/SC would have failed.
        validity = self.latest_snapshot.with_completed(tid)
        self._insert(key, record, cell_version, validity)
        self.stats.puts += 1
        return
        yield  # pragma: no cover - makes this a generator

    def invalidate(self, key):
        if key in self._records:
            del self._records[key]
            self._forget(key)

    def _insert(self, key, record, cell_version, validity) -> None:
        records = self._records
        records[key] = record
        records.move_to_end(key)
        self._versions[key] = cell_version
        self._validity[key] = validity
        while len(records) > self.capacity:
            evicted, _record = records.popitem(last=False)  # LRU eviction
            self._forget(evicted)

    def _forget(self, key: Any) -> None:
        """Drop the rest of a key whose record just left the buffer."""
        del self._versions[key]
        del self._validity[key]


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
        # unit -> its buffered keys, for local unit invalidation; a unit
        # with no buffered key has no set
        self._unit_members: Dict[Any, set] = {}

    def _unit_of(self, key: Any) -> Any:
        table_id, rid = key
        return vset_key(table_id, rid, self.unit_size)

    def read_records(self, snapshot, keys):
        records, versions, unverified = self._probe(snapshot, keys)
        if not unverified:
            return records, versions

        # Condition 2: fetch the (small) version-set cells.
        unit_of = self._unit_of
        units = []
        seen_units = set()
        for position in unverified:
            unit = unit_of(keys[position])
            if unit not in seen_units:
                seen_units.add(unit)
                units.append(unit)
        self.stats.vset_checks += len(units)
        stored, _cell_versions = yield effects.multi_get(VSET_SPACE, units)
        stored_sets = {
            unit: (value if value is not None else SnapshotDescriptor(0, 0))
            for unit, value in zip(units, stored)
        }

        refetch: List[int] = []
        buffered = self._records
        for position in unverified:
            key = keys[position]
            unit_set = stored_sets[unit_of(key)]
            if key in buffered and self._validity[key] == unit_set:
                # Condition 2a: B' == B, the buffered record is still valid.
                records[position] = buffered[key]
                versions[position] = self._versions[key]
                self.stats.vset_valid += 1
            else:
                refetch.append(position)

        if refetch:
            # Condition 2b: re-fetch and adopt B' as the validity set.
            self.stats.fetches += len(refetch)
            fetched, fetched_versions = yield effects.multi_get(
                DATA_SPACE, [keys[position] for position in refetch]
            )
            for position, record, cell_version in zip(
                refetch, fetched, fetched_versions
            ):
                key = keys[position]
                self._insert_unit(key, record, cell_version,
                                  stored_sets[unit_of(key)])
                records[position] = record
                versions[position] = cell_version
        return records, versions

    def note_applied(self, tid, key, record, cell_version):
        # Update the record's unit cell so other PNs notice, then install
        # the written record locally.  Every other buffered record of the
        # unit is invalidated (their B no longer matches the stored cell).
        new_set = self.latest_snapshot.with_completed(tid)
        unit = self._unit_of(key)
        yield effects.Put(VSET_SPACE, unit, new_set)
        self.stats.puts += 1
        for member in self._unit_members.pop(unit, ()):
            if member != key:
                self.invalidate(member)
        self._insert_unit(key, record, cell_version, new_set)

    def _forget(self, key: Any) -> None:
        super()._forget(key)
        unit = self._unit_of(key)
        members = self._unit_members.get(unit)
        if members is not None:
            members.discard(key)
            if not members:
                del self._unit_members[unit]

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
