"""A single storage node (SN): partition-local state and op execution.

A storage node owns a set of partitions.  For each partition it keeps, per
*space* (a namespace such as ``data``, ``index``, ``txlog``, ``meta``), a
plain dict of key -> :class:`Cell` plus a sorted-key cache used by scans.
A cell is never changed once installed: every write binds a new one, and
a backup that holds its own dicts binds the master's cell object, while
each replica is still charged the cell's bytes.  A backup hosted with the
cluster goes one step further and *mirrors* its master: it binds the
master's space dicts themselves and keeps only its own ``bytes_used``,
until the first time it must differ from the master (a write of its own
node, or a copy from a different master); it then takes its own copy of
each dict (:meth:`PartitionStore.unshare`).

All operations on a node are atomic with respect to each other: under the
direct runner they execute synchronously, and under the simulator every
operation executes at a single event timestamp, which models the
linearizable single-key operations RAMCloud provides.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import KeyNotFound, NoCapacity, NodeUnavailable, WrongOwner
from repro.store.cell import Cell, approx_size

SpaceDict = Dict[Any, Cell]

#: What one write op did to its key, for the cluster to copy to the
#: backups: ``(old, cell, size, delta)`` -- the key's cell before and
#: after the op (None: absent; ``cell is old`` when a conditional write
#: was refused), ``approx_size(cell.value)`` when the op measured it
#: (else None), and what :meth:`StorageNode.copy_cell` charges a backup
#: holding ``old`` for ``cell``.
Written = Tuple[Optional[Cell], Optional[Cell], Optional[int], int]


class PartitionStore:
    """Data for one partition hosted by a node (master or backup copy).

    A *mirror* (``mirror_of`` set) binds the ``spaces`` mapping and the
    sorted-key cache of the master store it mirrors, so it holds exactly
    the master's keys and cells; only ``bytes_used`` is its own.
    """

    __slots__ = ("partition_id", "spaces", "_sorted_keys", "bytes_used",
                 "mirror_of")

    def __init__(self, partition_id: int,
                 mirror_of: Optional["PartitionStore"] = None):
        self.partition_id = partition_id
        self.mirror_of = mirror_of
        if mirror_of is None:
            self.spaces: Dict[str, SpaceDict] = {}
            # sorted key list per space, rebuilt lazily for scans
            self._sorted_keys: Dict[str, Optional[List[Any]]] = {}
        else:
            self.spaces = mirror_of.spaces
            self._sorted_keys = mirror_of._sorted_keys
        self.bytes_used = 0

    def unshare(self) -> None:
        """Stop mirroring: take an own copy of each space dict (same key
        order, same cells) and of the sorted-key cache."""
        self.spaces = {name: dict(cells) for name, cells in self.spaces.items()}
        self._sorted_keys = dict(self._sorted_keys)
        self.mirror_of = None

    def space(self, name: str) -> SpaceDict:
        existing = self.spaces.get(name)
        if existing is None:
            existing = {}
            self.spaces[name] = existing
            self._sorted_keys[name] = None
        return existing

    def invalidate_scan_cache(self, space_name: str) -> None:
        self._sorted_keys[space_name] = None

    def sorted_keys(self, space_name: str) -> List[Any]:
        cached = self._sorted_keys.get(space_name)
        if cached is None:
            cached = sorted(self.space(space_name).keys())
            self._sorted_keys[space_name] = cached
        return cached


class StorageNode:
    """One storage server with its hosted partitions and capacity limit."""

    def __init__(self, node_id: int, capacity_bytes: Optional[int] = None):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.alive = True
        self.partitions: Dict[int, PartitionStore] = {}
        # Partitions that migrated away (pid -> topology epoch of the
        # handoff): requests for them raise WrongOwner, not KeyNotFound,
        # so the dispatch layer re-routes instead of treating the key as
        # absent.  Empty on the static-topology path.
        self.moved_out: Dict[int, int] = {}
        self.bytes_used = 0
        #: The latest write op's :data:`Written`, which
        #: :meth:`StorageCluster.replicate` reads right after it.
        self.last_write: Written = (None, None, None, 0)
        # op accounting, harvested by repro.obs collectors at snapshot time
        self.ops_read = 0
        self.ops_write = 0
        self.ops_scan = 0

    # -- partition hosting -------------------------------------------------

    def host_partition(self, partition_id: int) -> PartitionStore:
        store = self.partitions.get(partition_id)
        if store is None:
            if self.moved_out:
                self.moved_out.pop(partition_id, None)
            store = PartitionStore(partition_id)
            self.partitions[partition_id] = store
        return store

    def host_mirror(self, master: PartitionStore) -> PartitionStore:
        """Host a backup of ``master``'s partition that mirrors it (the
        cluster's construction-time replicas)."""
        store = PartitionStore(master.partition_id, master)
        self.partitions[master.partition_id] = store
        return store

    def drop_partition(self, partition_id: int) -> None:
        store = self.partitions.pop(partition_id, None)
        if store is not None:
            self.bytes_used -= store.bytes_used

    def release_partition(self, partition_id: int, owner_epoch: int) -> None:
        """Drop a partition that migrated away, leaving a moved-out
        tombstone so stragglers get :class:`WrongOwner` (re-routable)
        instead of :class:`KeyNotFound` (a data statement)."""
        self.drop_partition(partition_id)
        self.moved_out[partition_id] = owner_epoch

    def partition(self, partition_id: int) -> PartitionStore:
        try:
            return self.partitions[partition_id]
        except KeyError:
            if partition_id in self.moved_out:
                raise WrongOwner(
                    partition_id, self.node_id, self.moved_out[partition_id]
                ) from None
            raise KeyNotFound(
                f"node {self.node_id} does not host partition {partition_id}"
            ) from None

    def _writable(self, partition_id: int) -> PartitionStore:
        """The store of ``partition_id`` for a write of this node's own:
        a mirror is unshared first, so the write never lands in the
        dicts of the master it mirrors."""
        store = self.partition(partition_id)
        if store.mirror_of is not None:
            store.unshare()
        return store

    # -- failure -----------------------------------------------------------

    def crash(self) -> None:
        """Simulate a crash-stop failure: data is volatile and lost."""
        self.alive = False
        self.partitions = {}
        self.moved_out = {}
        self.bytes_used = 0

    def restart(self) -> None:
        """Bring the node back empty; the management node must re-add it."""
        self.alive = True
        self.moved_out = {}

    def _check_alive(self) -> None:
        if not self.alive:
            raise NodeUnavailable(f"storage node {self.node_id} is down")

    # -- operations ----------------------------------------------------------
    # Each returns its request's result; the fabric sizes responses itself.

    def do_get(self, partition_id: int, space: str, key: Any) -> Tuple[Any, int]:
        # Hottest node op: inline the alive/partition/space lookups and
        # avoid materializing an empty space dict for a miss on an unseen
        # space (a pure read has no reason to allocate).
        if not self.alive:
            self._check_alive()
        self.ops_read += 1
        store = self.partitions.get(partition_id)
        if store is None:
            self.partition(partition_id)  # raises KeyNotFound
        cells = store.spaces.get(space)
        cell = cells.get(key) if cells is not None else None
        if cell is None:
            return None, 0
        return cell.value, cell.version

    def do_get_columns(
        self,
        space: str,
        keys: List[Any],
        pids: List[int],
        positions: Sequence[int],
        values: List[Any],
        versions: List[int],
    ) -> None:
        """A columnar read: for each ``p`` in ``positions``, the cell of
        ``keys[p]`` in partition ``pids[p]`` fills ``values[p]`` and
        ``versions[p]``; a missing cell leaves them at None / 0.  Counts
        and fails like :meth:`do_get` once per key, without building a
        ``(value, version)`` pair."""
        if not self.alive:
            self._check_alive()
        partitions = self.partitions
        for position in positions:
            store = partitions.get(pids[position])
            if store is None:
                self.ops_read += positions.index(position) + 1
                self.partition(pids[position])  # raises
            cells = store.spaces.get(space)
            if cells is not None:
                cell = cells.get(keys[position])
                if cell is not None:
                    values[position] = cell.value
                    versions[position] = cell.version
        self.ops_read += len(positions)

    def _install(
        self,
        store: PartitionStore,
        space: str,
        cells: SpaceDict,
        key: Any,
        old: Optional[Cell],
        cell: Cell,
        size: int,
    ) -> int:
        """The one create-or-replace path (``old`` is ``cells.get(key)``,
        ``size`` is ``approx_size(cell.value)``): charge first, so a write
        over capacity raises :class:`NoCapacity` with nothing changed, then
        bind ``cell``.  Cells are never changed once installed, so a backup
        binds the master's own cell object.  Returns the bytes charged."""
        if old is None:
            charged = size + approx_size(key)
            self._charge(store, charged)
            cells[key] = cell
            store.invalidate_scan_cache(space)
            return charged
        # Replacing: the key's size cancels out of the charge.
        charged = size - approx_size(old.value)
        self._charge(store, charged)
        cells[key] = cell
        return charged

    def do_put(self, partition_id: int, space: str, key: Any, value: Any) -> int:
        return self.do_put_if_version(partition_id, space, key, value, None)[1]

    def do_put_if_version(
        self,
        partition_id: int,
        space: str,
        key: Any,
        value: Any,
        expected_version: Optional[int],
    ) -> Tuple[bool, int]:
        """Store-conditional: apply only if the cell version matches
        (``expected_version`` None: unconditionally, as :meth:`do_put`)."""
        self._check_alive()
        self.ops_write += 1
        store = self._writable(partition_id)
        cells = store.space(space)
        old = cells.get(key)
        current = 0 if old is None else old.version
        if expected_version is not None and current != expected_version:
            self.last_write = (old, old, None, 0)
            return False, current
        cell = Cell(value, current + 1)
        size = approx_size(value)
        self.last_write = (
            old, cell, size,
            self._install(store, space, cells, key, old, cell, size),
        )
        return True, current + 1

    def do_delete(self, partition_id: int, space: str, key: Any) -> bool:
        self._check_alive()
        self.ops_write += 1
        store = self._writable(partition_id)
        cells = store.space(space)
        cell = cells.pop(key, None)
        if cell is None:
            self.last_write = (None, None, None, 0)
            return False
        self._delete_charge(store, space, key, cell)
        return True

    def do_delete_if_version(
        self, partition_id: int, space: str, key: Any, expected_version: int
    ) -> Tuple[bool, int]:
        self._check_alive()
        self.ops_write += 1
        store = self._writable(partition_id)
        cells = store.space(space)
        cell = cells.get(key)
        current = 0 if cell is None else cell.version
        if current != expected_version or cell is None:
            self.last_write = (cell, cell, None, 0)
            return False, current
        del cells[key]
        self._delete_charge(store, space, key, cell)
        return True, current

    def _delete_charge(self, store: PartitionStore, space: str, key: Any,
                       old: Cell) -> None:
        """Un-charge the cell ``old`` of ``key``, just deleted."""
        charged = -(approx_size(old.value) + approx_size(key))
        self._charge(store, charged)
        store.invalidate_scan_cache(space)
        self.last_write = (old, None, None, charged)

    def do_increment(
        self, partition_id: int, space: str, key: Any, delta: int
    ) -> int:
        self._check_alive()
        self.ops_write += 1
        store = self._writable(partition_id)
        cells = store.space(space)
        old = cells.get(key)
        if old is None:
            self._charge(store, 16)
            cell = cells[key] = Cell(delta, 1)
            store.invalidate_scan_cache(space)
        else:
            cell = cells[key] = Cell(old.value + delta, old.version + 1)
        # A backup is charged as a copy, unlike the master, which charges
        # 16 B for a new counter and nothing for a change.
        size = approx_size(cell.value)
        self.last_write = (
            old, cell, size,
            size + approx_size(key) if old is None
            else size - approx_size(old.value),
        )
        return cell.value

    def do_scan(
        self,
        partition_id: int,
        space: str,
        start: Any,
        end: Any,
        limit: Optional[int],
        snapshot: Any = None,
        scan_filter: Any = None,
    ) -> List[Tuple[Any, Any, int]]:
        """Partition-local range scan: start <= key < end, sorted.

        With ``snapshot``, the node resolves the visible version of every
        record and ships payload rows (optionally filtered) -- the
        storage-side selection push-down of Section 5.2.
        """
        self._check_alive()
        self.ops_scan += 1
        store = self.partition(partition_id)
        cells = store.space(space)
        keys = store.sorted_keys(space)
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        out: List[Tuple[Any, Any, int]] = []
        for key in keys[lo:hi]:
            cell = cells.get(key)
            if cell is None:
                continue
            if snapshot is None:
                out.append((key, cell.value, cell.version))
            else:
                # visible_payload resolves tombstones to None without
                # allocating a Version wrapper (slab fast path).
                row = cell.value.visible_payload(snapshot)
                if row is None:
                    continue
                if scan_filter is not None and not scan_filter.matches(row):
                    continue
                out.append((key, row, cell.version))
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- replication support ------------------------------------------------

    def copy_cell(self, partition_id: int, space: str, key: Any,
                  cell: Optional[Cell], size: Optional[int] = None) -> None:
        """Install a replica of a cell (None deletes): the replica binds
        ``cell`` itself, which is never changed once installed, and is
        charged its bytes as a copy.  ``size`` is ``approx_size(cell.value)``
        when the caller measured it once for every replica.  A mirror is
        unshared first: it is sent a copy only once its master moved."""
        self._check_alive()
        store = self.host_partition(partition_id)
        if store.mirror_of is not None:
            store.unshare()
        cells = store.space(space)
        if cell is not None:
            if size is None:
                size = approx_size(cell.value)
            self._install(store, space, cells, key, cells.get(key), cell, size)
            return
        old = cells.pop(key, None)
        if old is not None:
            self._charge(store, -(approx_size(old.value) + approx_size(key)))
            store.invalidate_scan_cache(space)

    def charge_mirror(self, store: PartitionStore, delta: int) -> None:
        """Charge a mirror of the current master for a replicated write
        (``delta``: what :meth:`copy_cell` would charge); raises
        :class:`NoCapacity` with nothing charged when it does not fit."""
        self._charge(store, delta)

    def snapshot_partition(self, partition_id: int) -> PartitionStore:
        """Copy a hosted partition (used to restore the replication factor
        after a failure): each space dict is copied, and the immutable
        cells are shared with the source."""
        self._check_alive()
        source = self.partition(partition_id)
        clone = PartitionStore(partition_id)
        for space_name, cells in source.spaces.items():
            clone.space(space_name).update(cells)
        clone.bytes_used = source.bytes_used
        return clone

    def install_partition(self, store: PartitionStore) -> None:
        self._check_alive()
        self.drop_partition(store.partition_id)
        self.moved_out.pop(store.partition_id, None)
        self.partitions[store.partition_id] = store
        self.bytes_used += store.bytes_used

    # -- internals -----------------------------------------------------------

    def _charge(self, store: PartitionStore, delta: int) -> None:
        if (
            delta > 0
            and self.capacity_bytes is not None
            and self.bytes_used + delta > self.capacity_bytes
        ):
            raise NoCapacity(
                f"storage node {self.node_id} full "
                f"({self.bytes_used + delta} > {self.capacity_bytes} bytes)"
            )
        store.bytes_used += delta
        self.bytes_used += delta

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"<StorageNode {self.node_id} {state} "
            f"{len(self.partitions)} partitions {self.bytes_used}B>"
        )
