"""Table handles: rows, primary/secondary index maintenance, entry GC.

A :class:`Table` binds a table schema to a running transaction and offers
record-level operations.  It encodes the paper's index discipline:

* indexes are *version-unaware* (Section 5.3.2): one entry per record,
  inserted only when the indexed key value appears, never on every
  version;
* entries are **not** removed when a row is deleted or its key changes --
  older snapshots still reach old versions through them.  Instead, reads
  garbage-collect entries once no surviving version carries the key
  (``V_a \\ G = ∅``, Section 5.4);
* a read through an index may fetch records that turn out invisible to
  the snapshot; those reads are wasted but harmless, exactly as the paper
  accepts.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import effects
from repro.core.record import TOMBSTONE, VersionedRecord
from repro.core.spaces import DATA_SPACE, data_key
from repro.core.transaction import Transaction
from repro.errors import DuplicateKey, KeyNotFound
from repro.index.btree import MAX_RID, DistributedBTree
from repro.sql.keyenc import EncodedKey, encode_key
from repro.sql.schema import IndexDef, TableSchema


class IndexManager:
    """Per-processing-node registry of B+tree handles (with their caches)."""

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self._trees: Dict[int, DistributedBTree] = {}

    def tree(self, index: IndexDef) -> DistributedBTree:
        tree = self._trees.get(index.index_id)
        if tree is None:
            tree = DistributedBTree(index.index_id, max_entries=self.max_entries)
            self._trees[index.index_id] = tree
        return tree

    def trees(self) -> List[Tuple[int, DistributedBTree]]:
        """``(index id, tree)`` for every tree built so far, by id."""
        return sorted(self._trees.items())

    def create_storage(self, index: IndexDef) -> Generator:
        yield from self.tree(index).create()


class Table:
    """Row operations for one table inside one transaction."""

    def __init__(
        self,
        schema: TableSchema,
        txn: Transaction,
        indexes: IndexManager,
    ):
        self.schema = schema
        self.txn = txn
        self.indexes = indexes

    # -- writes -----------------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> Generator:
        """Insert a row; returns the allocated rid.

        Unique indexes are pre-checked (with dead-entry GC) here and
        enforced again at commit time by the B+tree with
        :meth:`unique_check`, which catches races between concurrent
        inserters.
        """
        row = self.schema.make_row(values)
        for index in self.schema.indexes:
            if index.unique:
                yield from self._check_unique(index, row)
        rid = yield from self.txn.pn.allocate_rid(self.schema.table_id)
        self.txn.insert(data_key(self.schema.table_id, rid), row)
        for index in self.schema.indexes:
            key = encode_key(self.schema.index_key_of(index, row))
            self.txn.index_ops.append(
                (self.indexes.tree(index), key, rid, self.unique_check(index))
            )
        return rid

    def update_by_rid(self, rid: int, changes: Dict[str, Any]) -> Generator:
        """Apply column changes to the row at ``rid``."""
        key = data_key(self.schema.table_id, rid)
        current = yield from self.txn.read(key)
        if current is None:
            raise KeyNotFound(f"{self.schema.name}: rid {rid} not visible")
        merged = self.schema.row_to_dict(current)
        merged.update({name.lower(): value for name, value in changes.items()})
        new_row = self.schema.make_row(merged)
        yield from self.txn.update(key, new_row)
        # Indexes: only keys that changed get a *new* entry; the old entry
        # stays until GC because older versions remain reachable via it.
        for index in self.schema.indexes:
            old_key = self.schema.index_key_of(index, current)
            new_key = self.schema.index_key_of(index, new_row)
            if old_key != new_key:
                if index.unique:
                    yield from self._check_unique(index, new_row)
                self.txn.index_ops.append(
                    (self.indexes.tree(index), encode_key(new_key), rid,
                     self.unique_check(index))
                )
        return new_row

    def delete_by_rid(self, rid: int) -> Generator:
        """Delete the row (tombstone version; index entries stay for GC)."""
        key = data_key(self.schema.table_id, rid)
        own_insert = yield from self.txn.delete(key)
        if own_insert:
            # The row never left this transaction, so neither may the
            # index inserts queued for it: a re-insert of the same key
            # would collide with them at commit, and alone they would
            # commit entries for a row that does not exist.
            trees = [self.indexes.tree(index) for index in self.schema.indexes]
            self.txn.index_ops[:] = [
                op for op in self.txn.index_ops
                if op[2] != rid or op[0] not in trees
            ]

    # -- point reads ---------------------------------------------------------------

    def get(self, pk: Sequence[Any]) -> Generator:
        """Row with the given primary key, or None.  Returns (rid, row)."""
        matches = yield from self.lookup(self.schema.primary_index, tuple(pk))
        if not matches:
            return None
        return matches[0]

    def get_many(self, pks: Sequence[Sequence[Any]]) -> Generator:
        """Batched point lookups by primary key: one batched leaf fetch
        plus one batched record fetch (Tell's request batching).

        Returns ``{pk: (rid, row) or None}``.
        """
        index = self.schema.primary_index
        tree = self.indexes.tree(index)
        pk_tuples = [tuple(pk) for pk in pks]
        encoded: Dict[Tuple[Any, ...], EncodedKey] = {
            pk: encode_key(pk) for pk in pk_tuples
        }
        rid_map = yield from tree.lookup_many(
            [encoded[pk] for pk in pk_tuples]
        )
        storage_keys = []
        for pk in pk_tuples:
            for rid in rid_map[encoded[pk]]:
                storage_keys.append(data_key(self.schema.table_id, rid))
        rows = (yield from self.txn.read_many(storage_keys)) if storage_keys else {}
        local = self._local_rows()
        result: Dict[Tuple[Any, ...], Optional[Tuple[int, Tuple[Any, ...]]]] = {}
        for pk in pk_tuples:
            match = None
            for rid in rid_map[encoded[pk]]:
                row = rows.get(data_key(self.schema.table_id, rid))
                if row is not None and self.schema.key_of(row) == pk:
                    match = (rid, row)
                    break
            if match is None:
                for rid, row in local:
                    if self.schema.key_of(row) == pk:
                        match = (rid, row)
                        break
            result[pk] = match
        return result

    def get_for_update(self, pk: Sequence[Any]) -> Generator:
        """Point lookup that must succeed, priming the row for an update.

        The row is expected to be written by the caller before commit; if
        a strict SELECT FOR UPDATE (conflict even without a subsequent
        write) is wanted, use :meth:`lock` instead.
        """
        result = yield from self.get(pk)
        if result is None:
            raise KeyNotFound(f"{self.schema.name}: key {tuple(pk)!r} not found")
        return result

    def lock(self, pk: Sequence[Any]) -> Generator:
        """SELECT FOR UPDATE: read the row and materialize the read as a
        write so concurrent writers conflict (prevents write skew on this
        row).  Returns (rid, row); raises KeyNotFound when absent."""
        result = yield from self.get(pk)
        if result is None:
            raise KeyNotFound(f"{self.schema.name}: key {tuple(pk)!r} not found")
        rid, row = result
        yield from self.txn.read_for_update(data_key(self.schema.table_id, rid))
        return result

    def lookup(
        self, index: IndexDef, key: Tuple[Any, ...]
    ) -> Generator:
        """All visible rows whose ``index`` columns equal ``key``.

        Returns ``[(rid, row), ...]``.  Stale entries (pointing at records
        where no version carries the key any more) are garbage collected
        on the way, implementing the read-side index GC of Section 5.4.
        """
        tree = self.indexes.tree(index)
        rids = yield from tree.lookup(encode_key(key))
        results: List[Tuple[int, Tuple[Any, ...]]] = []
        if rids:
            keys = [data_key(self.schema.table_id, rid) for rid in rids]
            rows = yield from self.txn.read_many(keys)
            for rid, storage_key in zip(rids, keys):
                row = rows[storage_key]
                if row is not None and self.schema.index_key_of(index, row) == key:
                    results.append((rid, row))
                else:
                    yield from self._maybe_gc_entry(tree, index, key, rid)
        # Merge this transaction's own uncommitted inserts/updates, which
        # are not in the shared index yet.
        for rid, row in self._local_rows():
            if self.schema.index_key_of(index, row) == key:
                if all(existing_rid != rid for existing_rid, _ in results):
                    results.append((rid, row))
        results.sort(key=lambda pair: pair[0])
        return results

    # -- scans -----------------------------------------------------------------------

    def scan(self, pushdown: Optional["ScanFilter"] = None) -> Generator:
        """Full table scan; returns [(rid, row)] visible to the snapshot.

        With ``pushdown``, selection is executed *inside* the storage
        nodes (Section 5.2): each node resolves the snapshot-visible
        version and ships only matching rows, cutting response bandwidth
        for selective analytical queries.
        """
        if pushdown is None:
            rows = yield effects.Scan(
                DATA_SPACE, (self.schema.table_id,), (self.schema.table_id + 1,)
            )
        else:
            rows = yield effects.Scan(
                DATA_SPACE, (self.schema.table_id,), (self.schema.table_id + 1,),
                snapshot=self.txn.snapshot, scan_filter=pushdown,
            )
        if self.txn.tracks_reads:
            # Read-validating isolation (WSI/SSI): every key the scan
            # observed joins the read set, including pushdown-filtered
            # rows resolved inside the storage nodes.
            self.txn.note_scanned([key for key, _value, _cell in rows])
        local = dict(self._local_rows())
        superseded = local.keys() | self._locally_deleted_rids()
        if superseded:
            # The transaction-local state replaces these stored versions.
            rows = [row for row in rows if row[0][1] not in superseded]
        visible: List[Tuple[int, Tuple[Any, ...]]]
        if pushdown is not None:  # already resolved at the SN
            visible = [(key[1], row) for key, row, _cell_version in rows]
        else:
            visible = []
            snapshot = self.txn.snapshot
            for (_table_id, rid), record, _cell_version in rows:
                index = record.visible_index(snapshot)
                if index >= 0:
                    payload = record.payloads[index]
                    if payload is not TOMBSTONE:
                        visible.append((rid, payload))
        if local:
            # The store returns rows in key, i.e. rid, order; only the
            # transaction's own rows have to be merged into it.
            visible.extend(
                pair for pair in local.items()
                if pushdown is None or pushdown.matches(pair[1])
            )
            visible.sort(key=operator.itemgetter(0))
        return visible

    def make_filter(
        self, conjuncts: Sequence[Tuple[str, str, Any]]
    ) -> "ScanFilter":
        """Build a storage-side filter from (column, op, constant) triples."""
        from repro.store.pushdown import ScanFilter

        return ScanFilter([
            (self.schema.position(column), op, value)
            for column, op, value in conjuncts
        ])

    def index_range(
        self,
        index: IndexDef,
        low: Optional[Tuple[Any, ...]],
        high: Optional[Tuple[Any, ...]],
        include_high: bool = False,
        limit: Optional[int] = None,
    ) -> Generator:
        """Rows whose index key lies in [low, high) (or (..] with
        ``include_high``); returns [(rid, row)] in index order."""
        tree = self.indexes.tree(index)
        low_entry = encode_key(low) if low is not None else ()
        if high is None:
            high_entry = None
        elif include_high:
            # Inclusive bounds may be key *prefixes* (e.g. the first two
            # columns of a three-column index): MAX_RID sorts above every
            # component and rid that can follow the bound.
            high_entry = encode_key(high) + (MAX_RID,)
        else:
            high_entry = encode_key(high)
        entries = yield from tree.range_entries(low_entry, high_entry, limit=None)
        # (entry, row) for every entry whose row still carries the
        # entry's key.  The row's values are compared with the entry's
        # value slots: Python equality is the encoding's unless a NULL
        # (``(0, False)``, and ``0 == False``) or a bool (``True == 1``)
        # takes part.  A ``plain`` index has no such entry; elsewhere an
        # entry with a slot ranked below 2 is compared encoded.
        results: List[Tuple[EncodedKey, Tuple[Any, ...]]] = []
        if entries:
            table_id = self.schema.table_id
            keys = [data_key(table_id, entry[-1]) for entry in entries]
            rows = yield from self.txn.read_many(keys)
            values_of, plain = self.schema.index_values(index)
            slots_of = operator.itemgetter(*range(1, 2 * len(index.columns), 2))
            results = [
                (entry, row)
                for entry, row in zip(entries, map(rows.__getitem__, keys))
                if row is not None and (
                    (value := values_of(row)) is (slot := slots_of(entry))
                    or value == slot
                    if plain or min(entry[0:-1:2]) > 1
                    else encode_key(self.schema.index_key_of(index, row))
                    + (entry[-1],) == entry
                )
            ]
            if limit is not None:
                del results[limit:]
        merged = False
        for rid, row in self._local_rows():
            row_entry = encode_key(self.schema.index_key_of(index, row)) + (rid,)
            if (row_entry >= low_entry
                    and (high_entry is None or row_entry < high_entry)
                    and all(entry[-1] != rid for entry, _row in results)):
                results.append((row_entry, row))
                merged = True
        if merged:
            # The tree returns entries in order; only the transaction's
            # own rows have to be merged into it.
            results.sort(key=operator.itemgetter(0))
        if limit is not None:
            results = results[:limit]
        return [(entry[-1], row) for entry, row in results]

    # -- internals ---------------------------------------------------------------------

    def _local_rows(self) -> List[Tuple[int, Tuple[Any, ...]]]:
        """Rows written by this transaction (insert/update), excluding
        deletes; used to make a transaction read its own writes through
        table access paths."""
        rows = []
        for key, payload in self.txn.local_writes().items():
            table_id, rid = key
            if table_id == self.schema.table_id and payload is not TOMBSTONE:
                rows.append((rid, payload))
        return rows

    def _locally_deleted_rids(self) -> set:
        return {
            rid
            for (table_id, rid), payload in self.txn.local_writes().items()
            if table_id == self.schema.table_id and payload is TOMBSTONE
        }

    def _check_unique(self, index: IndexDef, row: Tuple[Any, ...]) -> Generator:
        """DuplicateKey if a live row already holds the unique key; dead
        index entries found on the way are collected."""
        key = self.schema.index_key_of(index, row)
        matches = yield from self.lookup(index, key)
        for rid, existing in matches:
            if existing is not row:
                raise DuplicateKey(
                    f"{self.schema.name}: duplicate key {key!r} on {index.name}"
                )

    def unique_check(
        self, index: IndexDef
    ) -> Optional[Callable[[EncodedKey, int], Generator]]:
        """The row check a B+tree insert into ``index`` runs on each
        same-key entry it finds; None when the index is not unique.

        An entry outlives its row (Section 5.3.2), so the check reads the
        row: it is gone when its newest version is a tombstone or holds
        another key, and that version is this transaction's own or
        committed in its snapshot.  Any other version is live -- of two
        concurrent inserters of one key, exactly one commits.
        """
        if not index.unique:
            return None
        schema = self.schema
        # The transaction's index_ops hold the check: capture its tid
        # and snapshot, not the transaction (no reference cycle).
        tid, snapshot = self.txn.tid, self.txn.snapshot

        def live(key: EncodedKey, rid: int) -> Generator:
            record, _cell_version = yield effects.Get(
                DATA_SPACE, data_key(schema.table_id, rid)
            )
            if record is None:
                return False
            newest = record.newest_tid
            if newest != tid and not snapshot.contains(newest):
                return True
            payload = record.payloads[0]
            return payload is not TOMBSTONE and encode_key(
                schema.index_key_of(index, payload)) == key

        return live

    def _maybe_gc_entry(
        self,
        tree: DistributedBTree,
        index: IndexDef,
        key: Tuple[Any, ...],
        rid: int,
    ) -> Generator:
        """Read-side index GC: remove the entry if no version of the
        record (that any active transaction could still see) carries the
        indexed key, i.e. V_a \\ G = ∅."""
        storage_key = data_key(self.schema.table_id, rid)
        record, _cell_version = yield effects.Get(DATA_SPACE, storage_key)
        if record is not None and self._key_still_referenced(record, index, key):
            return
        yield from tree.delete(encode_key(key), rid)

    def _key_still_referenced(
        self, record: VersionedRecord, index: IndexDef, key: Tuple[Any, ...]
    ) -> bool:
        surviving = record.collect_garbage(self.txn.lav)
        for payload in surviving.payloads:
            if payload is TOMBSTONE:
                continue
            if self.schema.index_key_of(index, payload) == key:
                return True
        return False
