"""Conflict scenarios for the schedule explorer.

Each scenario builds a small multi-PN deployment over the simulated
fabric (real protocol code, simulated time), attaches the full sanitizer
chain, drives hand-written conflicting transactions, adds end-state
assertions of its own (``SCN-*`` codes), and returns the run's
:class:`~repro.san.violations.ViolationLog`.  All scenarios take an
optional :class:`~repro.sim.kernel.SchedulerPolicy`, which is what lets
:class:`~repro.san.explorer.ScheduleExplorer` sweep interleavings and
replay failures deterministically.

This module (like the explorer and the CLI) is a *driver*: it owns the
deployment and may mutate protocol objects freely -- the observational
discipline (sanitizers are read-only observers, checked by
``test_sanitizers_leave_the_run_unchanged``) applies to
``si``/``gcsan``/``chain``/``shadow`` only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro import effects
from repro.core.gc import lazy_gc_pass
from repro.core.spaces import DATA_SPACE
from repro.errors import TellError, TransactionAborted
from repro.index.btree import DistributedBTree
from repro.runtime.config import SimulationConfig
from repro.runtime.deployment import SimulatedDeployment
from repro.san import make_sanitizers
from repro.san.si import Sanitizer
from repro.san.violations import ViolationLog
from repro.sim.kernel import Process, SchedulerPolicy, all_of

#: Hard wall for every scenario phase, in simulated microseconds.
_PHASE_LIMIT = 50_000_000.0


class SimWorld(SimulatedDeployment):
    """A minimal simulated deployment with the sanitizer attached.

    Same kernel, fabric and timing model as the TPC-C harness, but no
    workload and no ``run()``: the workload is whatever transaction
    scripts the scenario spawns -- small enough that a schedule sweep of
    N runs stays in the milliseconds.  The chain holds exactly one
    sanitizer: the one ``REPRO_SANITIZE`` attached, or else its own.
    """

    def __init__(self, policy: Optional[SchedulerPolicy] = None,
                 n_pns: int = 2, storage_nodes: int = 2,
                 isolation: str = "si") -> None:
        config = SimulationConfig(
            processing_nodes=n_pns, storage_nodes=storage_nodes,
            partitions_per_node=4, tid_range_size=16, isolation=isolation,
        )
        super().__init__(config, None, policy=policy)
        if self.sanitizer_log is None:
            self.sanitizer_log, chain = make_sanitizers(isolation=isolation)
            self.interceptors.extend(chain)
        self.log: ViolationLog = self.sanitizer_log
        (self.sanitizer,) = [interceptor for interceptor in self.interceptors
                             if isinstance(interceptor, Sanitizer)]
        self.pns = [self.make_pn(pn_id)[0] for pn_id in range(n_pns)]

    # -- driving protocol coroutines under the fabric --------------------

    def run_all(self, processes: Sequence[Process]) -> None:
        waiter = self.sim.spawn(
            all_of(self.sim, list(processes)), name="join"
        )
        self.sim.run_until_complete(waiter, limit=_PHASE_LIMIT)

    def run_one(self, pn_id: int, gen: Generator, name: str) -> Any:
        process = self.spawn(pn_id, gen, name)
        return self.sim.run_until_complete(process, limit=_PHASE_LIMIT)

    # -- common phases ----------------------------------------------------

    def seed(self, rows: Dict[Any, Any]) -> None:
        """Insert ``rows`` through one observed transaction."""

        def script() -> Generator:
            txn = yield from self.pns[0].begin()
            for key, payload in rows.items():
                txn.insert(key, payload)
            yield from txn.commit()
            return "committed"

        self.run_one(0, script(), "seed")

    def read_payload(self, key: Any) -> Any:
        """One observed read-only transaction; returns the payload."""

        def script() -> Generator:
            txn = yield from self.pns[0].begin()
            payload = yield from txn.read(key)
            yield from txn.commit()
            return payload

        return self.run_one(0, script(), "check-read")

    def finish(self) -> ViolationLog:
        """Post-run analysis: the SSI dependency graph, then the log."""
        self.sanitizer.analyze()
        return self.log


# -- reusable transaction scripts ----------------------------------------


def _increment_worker(world: SimWorld, pn_id: int, key: Any, rounds: int,
                      attempts: int = 8) -> Generator:
    """Increment ``key`` ``rounds`` times, retrying aborts; returns the
    number of increments that actually committed."""
    pn = world.pns[pn_id]
    committed = 0
    for _round in range(rounds):
        for _attempt in range(attempts):
            try:
                txn = yield from pn.begin()
                payload = yield from txn.read(key)
                if payload is None:
                    yield from txn.abort()
                    break
                yield from txn.update(key, (payload[0] + 1,))
                yield from txn.commit()
                committed += 1
                break
            except (TransactionAborted, TellError):
                yield effects.Sleep(7.0)
    return committed


# -- the scenarios --------------------------------------------------------


COUNTER_KEY = 900_001


def lost_update(policy: Optional[SchedulerPolicy] = None,
                isolation: str = "si") -> ViolationLog:
    """Concurrent read-modify-write on one counter from two PNs.

    Under correct LL/SC every committed increment survives; the final
    counter value must equal the number of commits.  A broken
    store-conditional (the seeded ``PutIfVersion`` mutation) both trips
    the shadow (SI-STALE-SC / SI-LOST-UPDATE) and loses increments,
    which the end-state assertion catches independently (SCN-COUNTER).
    """
    world = SimWorld(policy, isolation=isolation)
    world.seed({COUNTER_KEY: (0,)})
    workers = [
        world.spawn(
            worker % len(world.pns),
            _increment_worker(world, worker % len(world.pns),
                              COUNTER_KEY, rounds=3),
            f"inc-{worker}",
        )
        for worker in range(4)
    ]
    world.run_all(workers)
    total_committed = sum(process.result or 0 for process in workers)
    payload = world.read_payload(COUNTER_KEY)
    final = payload[0] if payload is not None else None
    if final != total_committed:
        world.log.violation(
            "SCN-COUNTER",
            f"{total_committed} increments committed but the counter "
            f"reads {final} -- updates were lost",
            committed=total_committed, final=final,
        )
    return world.finish()


GC_KEYS = (910_001, 910_002)


def gc_pressure(policy: Optional[SchedulerPolicy] = None,
                isolation: str = "si") -> ViolationLog:
    """Writers churn versions while a long-running snapshot stays open.

    The reader pins the lowest active version, so eager GC must retain
    every version its snapshot can reach; the reader's late second read
    exercises visibility over a multi-version record under an old
    snapshot.  Catches the seeded GC mutation (GC-ABOVE-LAV /
    GC-LIVE-SNAPSHOT) and the seeded visibility mutation (SI-READ), and
    asserts the snapshot never goes dark (SCN-SNAPSHOT-LOST).
    """
    world = SimWorld(policy, isolation=isolation)
    world.seed({GC_KEYS[0]: (0,), GC_KEYS[1]: (0,)})
    holder_done: List[Any] = []

    def holder() -> Generator:
        pn = world.pns[0]
        txn = yield from pn.begin()
        first = yield from txn.read(GC_KEYS[0])
        yield effects.Sleep(600.0)  # outlive several writer commits
        second = yield from txn.read(GC_KEYS[1])
        yield from txn.commit()
        holder_done.append((first, second))
        return "committed"

    processes = [world.spawn(0, holder(), "holder")]
    for worker, key in enumerate(GC_KEYS * 2):
        pn_id = 1 % len(world.pns)
        processes.append(
            world.spawn(
                pn_id,
                _increment_worker(world, pn_id, key, rounds=3),
                f"churn-{worker}",
            )
        )
    world.run_all(processes)
    if holder_done:
        first, second = holder_done[0]
        if first is None or second is None:
            world.log.violation(
                "SCN-SNAPSHOT-LOST",
                f"the long-running snapshot read {first!r}/{second!r}; a "
                f"version it could see was garbage-collected under it",
                first=first, second=second,
            )
    # A lazy sweep under the now-idle manager must also stay safe.
    world.run_one(
        0,
        lazy_gc_pass(world.commit_managers[0].lowest_active_version()),
        "lazy-gc",
    )
    return world.finish()


SKEW_KEYS = (920_001, 920_002)


def write_skew(policy: Optional[SchedulerPolicy] = None,
               isolation: str = "si") -> ViolationLog:
    """The classic two-doctors-on-call shape: disjoint writes over
    overlapping reads.  Under SI both transactions commit; the scenario
    must end *clean* with the anomaly surfaced as an SSI-WRITE-SKEW
    *report* from the dependency-graph analysis, never as a violation.
    Under the read-validating protocols (``isolation="wsi"``/``"ssi"``)
    commit-time validation aborts one doctor, so the dependency graph --
    now escalating cycles to violations -- must find nothing at all.
    """
    world = SimWorld(policy, isolation=isolation)
    world.seed({SKEW_KEYS[0]: (1,), SKEW_KEYS[1]: (1,)})

    def doctor(pn_id: int, write_key: Any) -> Generator:
        pn = world.pns[pn_id]
        try:
            txn = yield from pn.begin()
            values = yield from txn.read_many(list(SKEW_KEYS))
            on_call = sum(
                payload[0] for payload in values.values()
                if payload is not None
            )
            if on_call >= 2:
                yield from txn.update(write_key, (0,))
            yield from txn.commit()
            return "committed"
        except (TransactionAborted, TellError):
            return "conflict"

    world.run_all([
        world.spawn(0, doctor(0, SKEW_KEYS[0]), "doctor-a"),
        world.spawn(1 % len(world.pns), doctor(1 % len(world.pns),
                                               SKEW_KEYS[1]), "doctor-b"),
    ])
    return world.finish()


INDEX_RIDS = tuple(range(930_001, 930_009))


def index_gc(policy: Optional[SchedulerPolicy] = None,
             isolation: str = "si") -> ViolationLog:
    """Index maintenance vs garbage collection.

    Insert indexed rows, delete half of them (tombstones at commit; the
    entries outlive their rows, Section 5.3.2), remove those entries the
    way read-side GC does once the delete has committed, run a lazy GC
    sweep that drops the fully-deleted cells, then walk the B+tree:
    every surviving entry must still resolve to a live record
    (IDX-DANGLE otherwise).
    """
    world = SimWorld(policy, n_pns=1, isolation=isolation)
    btree = DistributedBTree(index_id=1)
    world.run_one(0, btree.create(), "idx-create")

    def insert_rows() -> Generator:
        txn = yield from world.pns[0].begin()
        for position, rid in enumerate(INDEX_RIDS):
            txn.insert(rid, (position,))
            txn.index_ops.append((btree, (position,), rid, None))
        yield from txn.commit()
        return "committed"

    def delete_rows() -> Generator:
        txn = yield from world.pns[0].begin()
        deleted = list(enumerate(INDEX_RIDS))[::2]
        for _position, rid in deleted:
            yield from txn.delete(rid)
        yield from txn.commit()
        for position, rid in deleted:
            yield from btree.delete((position,), rid)
        return "committed"

    world.run_one(0, insert_rows(), "idx-insert")
    world.run_one(0, delete_rows(), "idx-delete")
    world.run_one(
        0,
        lazy_gc_pass(world.commit_managers[0].lowest_active_version()),
        "idx-lazy-gc",
    )

    def validate() -> Generator:
        entries = yield from btree.all_entries()
        dangling = []
        for entry in entries:
            rid = entry[-1]
            value, _cell_version = yield effects.Get(DATA_SPACE, rid)
            if value is None or all(
                version.is_tombstone for version in value.versions
            ):
                dangling.append(entry)
        return dangling

    for entry in world.run_one(0, validate(), "idx-validate"):
        world.log.violation(
            "IDX-DANGLE",
            f"index entry {entry!r} survived GC but its record is gone "
            f"(or fully tombstoned) in the data space",
            entry=list(entry),
        )
    return world.finish()


#: Scenario registry: name -> callable(policy) -> ViolationLog.
SCENARIOS: Dict[str, Callable[[Optional[SchedulerPolicy]], ViolationLog]] = {
    "lost_update": lost_update,
    "gc_pressure": gc_pressure,
    "write_skew": write_skew,
    "index_gc": index_gc,
}
