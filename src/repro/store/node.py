"""A single storage node (SN): partition-local state and op execution.

A storage node owns a set of partitions.  For each partition it keeps, per
*space* (a namespace such as ``data``, ``index``, ``txlog``, ``meta``), a
plain dict of key -> :class:`Cell` plus a sorted-key cache used by scans.

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


class PartitionStore:
    """Data for one partition hosted by a node (master or backup copy)."""

    __slots__ = ("partition_id", "spaces", "_sorted_keys", "bytes_used")

    def __init__(self, partition_id: int):
        self.partition_id = partition_id
        self.spaces: Dict[str, SpaceDict] = {}
        # sorted key list per space, rebuilt lazily for scans
        self._sorted_keys: Dict[str, Optional[List[Any]]] = {}
        self.bytes_used = 0

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

    def __init__(
        self,
        node_id: int,
        capacity_bytes: Optional[int] = None,
        service_us_read: float = 1.2,
        service_us_write: float = 1.8,
    ):
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.service_us_read = service_us_read
        self.service_us_write = service_us_write
        self.alive = True
        self.partitions: Dict[int, PartitionStore] = {}
        # Partitions that migrated away (pid -> topology epoch of the
        # handoff): requests for them raise WrongOwner, not KeyNotFound,
        # so the dispatch layer re-routes instead of treating the key as
        # absent.  Empty on the static-topology path.
        self.moved_out: Dict[int, int] = {}
        self.bytes_used = 0
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
        cell: Optional[Cell],
        value: Any,
        version: int,
        size: int,
    ) -> None:
        """The one create-or-replace path (``cell`` is ``cells.get(key)``,
        ``size`` is ``approx_size(value)``): charge first, so a write over
        capacity raises :class:`NoCapacity` with nothing changed."""
        if cell is None:
            self._charge(store, size + approx_size(key))
            cells[key] = Cell(value, version)
            store.invalidate_scan_cache(space)
            return
        # Replacing in place: the key's size cancels out of the delta.
        self._charge(store, size - approx_size(cell.value))
        cell.value = value
        cell.version = version

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
        store = self.partition(partition_id)
        cells = store.space(space)
        cell = cells.get(key)
        current = 0 if cell is None else cell.version
        if expected_version is not None and current != expected_version:
            return False, current
        self._install(store, space, cells, key, cell, value, current + 1,
                      approx_size(value))
        return True, current + 1

    def do_delete(self, partition_id: int, space: str, key: Any) -> bool:
        self._check_alive()
        self.ops_write += 1
        store = self.partition(partition_id)
        cells = store.space(space)
        cell = cells.pop(key, None)
        if cell is None:
            return False
        self._charge(store, -(approx_size(cell.value) + approx_size(key)))
        store.invalidate_scan_cache(space)
        return True

    def do_delete_if_version(
        self, partition_id: int, space: str, key: Any, expected_version: int
    ) -> Tuple[bool, int]:
        self._check_alive()
        self.ops_write += 1
        store = self.partition(partition_id)
        cells = store.space(space)
        cell = cells.get(key)
        current = 0 if cell is None else cell.version
        if current != expected_version or cell is None:
            return False, current
        del cells[key]
        self._charge(store, -(approx_size(cell.value) + approx_size(key)))
        store.invalidate_scan_cache(space)
        return True, current

    def do_increment(
        self, partition_id: int, space: str, key: Any, delta: int
    ) -> int:
        self._check_alive()
        self.ops_write += 1
        store = self.partition(partition_id)
        cells = store.space(space)
        cell = cells.get(key)
        if cell is None:
            self._charge(store, 16)
            cells[key] = Cell(delta, 1)
            store.invalidate_scan_cache(space)
            return delta
        cell.value += delta
        cell.version += 1
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
        """Install a replica copy of a cell (None deletes).  ``size`` is
        ``approx_size(cell.value)`` when the caller measured it once for
        every replica."""
        self._check_alive()
        store = self.host_partition(partition_id)
        cells = store.space(space)
        if cell is not None:
            if size is None:
                size = approx_size(cell.value)
            self._install(store, space, cells, key, cells.get(key),
                          cell.value, cell.version, size)
            return
        old = cells.pop(key, None)
        if old is not None:
            self._charge(store, -(approx_size(old.value) + approx_size(key)))
            store.invalidate_scan_cache(space)

    def snapshot_partition(self, partition_id: int) -> PartitionStore:
        """Deep copy a hosted partition (used to restore the replication
        factor after a failure)."""
        self._check_alive()
        source = self.partition(partition_id)
        clone = PartitionStore(partition_id)
        for space_name, cells in source.spaces.items():
            target = clone.space(space_name)
            for key, cell in cells.items():
                target[key] = Cell(cell.value, cell.version)
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
