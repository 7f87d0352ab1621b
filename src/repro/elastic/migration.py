"""Bounded-batch partition handoff: stream keys while PNs keep committing.

The protocol (per partition move, see ``docs/elasticity.md``):

1. **Register** -- :meth:`PartitionMap.begin_handoff` appends the destination
   to the partition's replica list (epoch bump).  From this instant every
   *new* write reaches the destination through the ordinary synchronous
   replication path, so the migration only has to stream the cells that
   already exist.
2. **Stream** -- existing cells copy over in bounded batches.  The step
   generator yields a :class:`BatchCost` before each batch; the driver
   (direct: ignore, sim: charge wire + service time on both nodes'
   core pools) decides how long the batch takes.  Each batch reads the
   *current master's* cells at its simulated instant, so a cell updated
   after the key snapshot copies in its newest state, and a deleted cell
   is skipped (the delete already replicated as a tombstone copy).
3. **Promote** -- :meth:`PartitionMap.finish_handoff` swaps the destination
   into the source's slot in one atomic epoch step (master handoffs never
   leave an ownerless instant), and the source drops the partition with a
   moved-out tombstone: stragglers raise
   :class:`~repro.errors.WrongOwner` and get re-routed.
4. **Abort** -- on any storage error (source or destination died) the
   registration rolls back: the destination leaves the replica list and
   drops its partial copy.  A concurrent fail-over may have aborted the
   handoff already (:meth:`PartitionMap.fail_over` evicts half-copied
   destinations before promoting backups); the generator detects that
   after every batch via :meth:`PartitionMap.handoff_active` and unwinds.

Every step is SI-safe: the destination is indistinguishable from a
backup replica until promotion, and promotion changes routing only --
never version history.  The sanitizer suite stays clean through
migrations (pinned by the elastic tests).

:class:`StorageOps` builds SN add, remove, rebalance and scale-to on top
of the one-partition protocol -- one set of operations that both the
embedded ``db.admin()`` and the simulated coordinator drive.
"""

from __future__ import annotations

from typing import (Any, Callable, Generator, List, Optional, Sequence,
                    Tuple)

from repro.elastic.topology import (Move, assert_no_leaks, plan_drain,
                                    plan_rebalance)
from repro.errors import InvalidState, TellError
from repro.store.cell import approx_size
from repro.store.partition import PartitionMap

#: Default cells per migration batch (bounds the per-event copy work and
#: the message size; the coordinator charges one wire+service round per
#: batch).
DEFAULT_BATCH_CELLS = 128


class MigrationStats:
    """Counters for one migration run (a rebalance or drain)."""

    __slots__ = ("partitions_moved", "cells_copied", "bytes_copied",
                 "batches", "aborted_handoffs")

    def __init__(self) -> None:
        self.partitions_moved = 0
        self.cells_copied = 0
        self.bytes_copied = 0
        self.batches = 0
        self.aborted_handoffs = 0

    def as_dict(self) -> dict:
        return {
            "partitions_moved": self.partitions_moved,
            "cells_copied": self.cells_copied,
            "bytes_copied": self.bytes_copied,
            "batches": self.batches,
            "aborted_handoffs": self.aborted_handoffs,
        }

    def __repr__(self) -> str:
        return (
            f"<MigrationStats moved={self.partitions_moved} "
            f"cells={self.cells_copied} batches={self.batches} "
            f"aborted={self.aborted_handoffs}>"
        )


class BatchCost:
    """Cost of the next migration batch, yielded to the driving loop."""

    __slots__ = ("src", "dst", "cells", "nbytes")

    def __init__(self, src: int, dst: int, cells: int, nbytes: int):
        self.src = src
        self.dst = dst
        self.cells = cells
        self.nbytes = nbytes

    def __repr__(self) -> str:
        return (f"BatchCost({self.src}->{self.dst}, cells={self.cells}, "
                f"bytes={self.nbytes})")


def migrate_partition(
    cluster: Any,
    move: Move,
    batch_cells: int = DEFAULT_BATCH_CELLS,
    stats: Optional[MigrationStats] = None,
) -> Generator[BatchCost, None, bool]:
    """Step generator moving one partition per the protocol above.

    Yields a :class:`BatchCost` before each batch copy; the caller
    resumes the generator once the batch's simulated (or zero, direct
    mode) transfer time elapsed.  Returns ``True`` when the handoff
    committed, ``False`` when it aborted (rolled back cleanly).
    """
    if stats is None:
        stats = MigrationStats()
    pmap: PartitionMap = cluster.partition_map
    pid = move.partition_id
    try:
        # Registration can legitimately fail under chaos: a fail-over
        # between planning and execution may have evicted the source
        # from the replica list or killed the destination.  The move is
        # simply skipped; the plan's remaining moves still run.
        handoff = pmap.begin_handoff(pid, move.src, move.dst)
    except TellError:
        stats.aborted_handoffs += 1
        return False
    dst_node = cluster.nodes.get(move.dst)
    if dst_node is None or not dst_node.alive:
        pmap.abort_handoff(handoff)
        stats.aborted_handoffs += 1
        return False
    dst_node.host_partition(pid)
    try:
        master_store = cluster.nodes[pmap.master_of(pid)].partition(pid)
        for space in sorted(master_store.spaces):
            # Insertion order, not sort order: spaces may mix key types
            # (unorderable), and dict order is deterministic under the
            # sim.  The snapshot is only a work list -- each batch reads
            # the master's *current* cell at copy time.
            keys = list(master_store.spaces[space].keys())
            for start in range(0, len(keys), batch_cells):
                chunk = keys[start:start + batch_cells]
                cells = master_store.spaces.get(space)
                nbytes = 24 * len(chunk)
                if cells is not None:
                    for key in chunk:
                        cell = cells.get(key)
                        if cell is not None:
                            nbytes += approx_size(key) + approx_size(cell.value)
                yield BatchCost(move.src, move.dst, len(chunk), nbytes)
                # Simulated time passed: the handoff may have been
                # aborted by a fail-over, or the master may have moved.
                if not pmap.handoff_active(handoff):
                    _drop_partial(cluster, move, pid)
                    stats.aborted_handoffs += 1
                    return False
                master_store = cluster.nodes[pmap.master_of(pid)].partition(pid)
                cells = master_store.spaces.get(space)
                copied = 0
                if cells is not None:
                    for key in chunk:
                        cell = cells.get(key)
                        if cell is not None:
                            dst_node.copy_cell(pid, space, key, cell)
                            copied += 1
                stats.cells_copied += copied
                stats.bytes_copied += nbytes
                stats.batches += 1
        if not pmap.handoff_active(handoff):
            _drop_partial(cluster, move, pid)
            stats.aborted_handoffs += 1
            return False
        pmap.finish_handoff(handoff)
        src_node = cluster.nodes.get(move.src)
        if src_node is not None and src_node.alive:
            src_node.release_partition(pid, pmap.epoch)
        stats.partitions_moved += 1
        return True
    except TellError:
        # Source or destination died mid-copy: unwind the registration.
        if pmap.handoff_active(handoff):
            pmap.abort_handoff(handoff)
        _drop_partial(cluster, move, pid)
        stats.aborted_handoffs += 1
        return False


def _drop_partial(cluster: Any, move: Move, pid: int) -> None:
    """Remove the destination's partial copy unless it still legitimately
    holds a replica (e.g. the fail-over promoted a *different* plan)."""
    dst_node = cluster.nodes.get(move.dst)
    if dst_node is None or not dst_node.alive:
        return
    replicas = cluster.partition_map.assignments[pid].replicas
    if move.dst not in replicas:
        dst_node.drop_partition(pid)


class StorageOps:
    """SN add, remove, rebalance and scale-to, written once for both drivers.

    Each operation is a generator that yields every migration batch's
    :class:`BatchCost` and reports each elastic step to ``log``.
    :class:`repro.api.admin.ClusterAdmin` drains the generators (the
    embedded path models no time, so costs are ignored);
    :class:`repro.elastic.coordinator.ElasticCoordinator` charges each
    cost on the SN core pools under its FIFO lock.  Moves run one at a
    time in plan order, so a fixed seed replays the identical schedule.
    """

    def __init__(self, cluster: Any, management: Any,
                 log: Callable[[str], None],
                 batch_cells: int = DEFAULT_BATCH_CELLS):
        self.cluster = cluster
        self.management = management
        self.log = log
        self.batch_cells = batch_cells
        self.stats = MigrationStats()

    def add_storage_node(self, capacity_bytes: Optional[int] = None,
                         rebalance: bool = True) -> Generator:
        """Attach a fresh SN and, by default, rebalance partitions onto
        it.  Returns the new node id."""
        node_id = self.cluster.create_node(capacity_bytes).node_id
        pmap = self.cluster.partition_map
        self.log(f"sn-add {node_id} epoch={pmap.epoch}")
        if rebalance:
            yield from self.run_moves(plan_rebalance(pmap))
        return node_id

    def remove_storage_node(self, node_id: int, drain: bool = True) -> Generator:
        """Retire an SN.  ``drain=True`` migrates its partitions away
        first (no data loss at any replication factor); ``drain=False``
        is a hard removal -- crash plus fail-over through the management
        node, losing nothing only under RF>1."""
        cluster = self.cluster
        if node_id not in cluster.nodes:
            raise InvalidState(f"no storage node {node_id}")
        if drain:
            moves = plan_drain(cluster.partition_map, node_id)
            self.log(f"sn-drain {node_id} moves={len(moves)}")
            yield from self.run_moves(moves)
        else:
            self.log(f"sn-kill {node_id}")
            self.management.handle_node_failure(node_id)
        cluster.detach_node(node_id)
        self.log(f"sn-removed {node_id} epoch={cluster.partition_map.epoch}")

    def rebalance(self) -> Generator:
        """Move partitions until master counts differ by at most one;
        returns the number of moves run."""
        moves = plan_rebalance(self.cluster.partition_map)
        self.log(f"rebalance moves={len(moves)}")
        yield from self.run_moves(moves)
        return len(moves)

    def scale_storage_to(self, target: int) -> Generator:
        """Grow or shrink the SN fleet to ``target`` members.

        Growth attaches every missing node first and rebalances once --
        a single planning pass moves each partition at most once, where
        incremental :meth:`add_storage_node` calls would re-shuffle after
        every attach.  Shrink drains the highest-numbered node, one at a
        time, re-reading membership before each step.  Returns the
        resulting sorted node-id list.
        """
        if target < 1:
            raise InvalidState("scale_storage_to needs target >= 1")
        cluster = self.cluster
        current = len(cluster.nodes)
        if target > current:
            added = [cluster.create_node().node_id
                     for _ in range(target - current)]
            self.log(f"sn-scale {current}->{target} added={added}")
            yield from self.run_moves(plan_rebalance(cluster.partition_map))
        while len(cluster.nodes) > target:
            yield from self.remove_storage_node(max(cluster.nodes))
        return sorted(cluster.nodes)

    def run_moves(self, moves: Sequence[Move]) -> Generator:
        """Run ``moves`` one at a time, in plan order."""
        pmap = self.cluster.partition_map
        for move in moves:
            committed = yield from migrate_partition(
                self.cluster, move, self.batch_cells, self.stats
            )
            self.log(
                f"move p{move.partition_id} {move.src}->{move.dst} "
                f"{'ok' if committed else 'aborted'} epoch={pmap.epoch}"
            )
        self.log(
            f"moves-done n={len(moves)} epoch={pmap.epoch} "
            f"balanced={pmap.is_balanced()}"
        )


# -- leak checking (the _backfill_index lesson, applied to migrations) -------


def capture_pins(commit_managers: Sequence[Any]) -> List[Tuple[int, Tuple, int]]:
    """Snapshot of every CM's active-transaction pins and lav.

    Taken before a migration; :func:`assert_migration_clean` compares
    against it afterwards to prove the migration opened no transaction
    and pinned no version (an aborted migration must not hold the lav
    down the way the old ``Session._backfill_index`` leak did).
    """
    return [
        (
            manager.cm_id,
            tuple(tid for tid, _base, _pn in manager.active_transactions()),
            manager.lowest_active_version(),
        )
        for manager in commit_managers
    ]


def assert_migration_clean(
    cluster: Any,
    commit_managers: Sequence[Any] = (),
    pins_before: Optional[List[Tuple[int, Tuple, int]]] = None,
) -> None:
    """Assert a finished (or aborted) migration leaked nothing.

    Checks the ownership invariants (no residual handoffs, hosting
    matches assignment) and -- when ``pins_before`` was captured on a
    quiescent deployment -- that the commit managers' active-transaction
    sets and lav are unchanged: no open transaction or lav pin survives
    an aborted migration.
    """
    assert_no_leaks(cluster)
    if pins_before is not None:
        pins_after = capture_pins(commit_managers)
        if pins_after != pins_before:
            raise InvalidState(
                f"migration leaked transaction state: pins before "
                f"{pins_before!r} != after {pins_after!r}"
            )
