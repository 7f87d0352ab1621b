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
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.elastic.topology import Move, assert_no_leaks
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


def run_moves_direct(
    cluster: Any,
    moves: Sequence[Move],
    batch_cells: int = DEFAULT_BATCH_CELLS,
    stats: Optional[MigrationStats] = None,
) -> MigrationStats:
    """Drive a list of moves synchronously (the embedded-database path).

    The direct runner models no time, so batch costs are consumed
    without waiting; state transitions are identical to the simulated
    path.
    """
    if stats is None:
        stats = MigrationStats()
    for move in moves:
        steps = migrate_partition(cluster, move, batch_cells, stats)
        while True:
            try:
                next(steps)
            except StopIteration:
                break
    return stats


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
