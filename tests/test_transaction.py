"""Tests for transactions: snapshot isolation semantics with LL/SC.

These exercise the life-cycle of Section 4.3 and the SI guarantees of
Section 4.1 -- including concurrent interleavings at every storage
request boundary via the ``interleave`` helper.
"""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.record import TOMBSTONE
from repro.core.spaces import DATA_SPACE, data_key
from repro.core.transaction import TxnState
from repro.core.txlog import LOG_SPACE, STATUS_ABORTED
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.runtime.config import SimulationConfig
from repro.runtime.fabric import CorePool, SimFabric, drive
from repro.sim.kernel import Simulator
from repro.store.cluster import StorageCluster
from repro.errors import (
    InvalidState,
    KeyNotFound,
    TransactionAborted,
)
from tests.conftest import interleave

K1 = data_key(1, 1)
K2 = data_key(1, 2)


@pytest.fixture
def env(cluster):
    cm = CommitManager(0, cluster.execute, tid_range_size=32)
    pn = ProcessingNode(0)
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    return cluster, cm, pn, dispatcher


def inserts(rows):
    def logic(txn):
        for key, payload in rows.items():
            txn.insert(key, payload)
        return None
        yield

    return logic


def seed(dispatcher, pn, rows):
    run_direct(pn.run_transaction(inserts(rows)), dispatcher)


class TestLifecycle:
    def test_states(self, env):
        _cluster, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        assert txn.state is TxnState.RUNNING
        txn.insert(K1, ("a",))
        run_direct(txn.commit(), dispatcher)
        assert txn.state is TxnState.COMMITTED

    def test_commit_twice_rejected(self, env):
        _c, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.commit(), dispatcher)
        with pytest.raises(InvalidState):
            run_direct(txn.commit(), dispatcher)

    def test_manual_abort(self, env):
        cluster, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("x",)})
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.update(K1, ("y",)), dispatcher)
        run_direct(txn.abort(), dispatcher)
        assert txn.state is TxnState.ABORTED
        # nothing was applied
        check = run_direct(pn.begin(), dispatcher)
        assert run_direct(check.read(K1), dispatcher) == ("x",)

    def test_read_only_fast_path_writes_no_log(self, env):
        cluster, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("x",)})
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.read(K1), dispatcher)
        run_direct(txn.commit(), dispatcher)
        entry, _ = cluster.execute(effects.Get(LOG_SPACE, txn.tid))
        assert entry is None

    def test_committed_txn_has_committed_log_flag(self, env):
        cluster, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        txn.insert(K1, ("v",))
        run_direct(txn.commit(), dispatcher)
        entry, _ = cluster.execute(effects.Get(LOG_SPACE, txn.tid))
        assert entry.committed
        assert K1 in entry.write_set


    def test_run_transaction_aborts_when_logic_raises(self, env):
        """An application error must not leave the tid active: it would
        pin the lowest active version and block GC for good."""
        _cluster, cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("x",)})

        def broken(txn):
            yield from txn.update(K2, ("no such row",))

        with pytest.raises(KeyNotFound):
            run_direct(pn.run_transaction(broken), dispatcher)
        assert cm.active_transactions() == []
        assert pn.stats.aborted == 1

        def bump(txn):
            yield from txn.update(K1, ("y",))

        for _ in range(5):
            run_direct(pn.run_transaction(bump), dispatcher)
        assert cm.lowest_active_version() == cm.completed.base == 7


class TestReadsAndWrites:
    def test_read_your_own_writes(self, env):
        _c, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        txn.insert(K1, ("mine",))
        assert run_direct(txn.read(K1), dispatcher) == ("mine",)

    def test_read_your_own_update(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("old",)})
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.update(K1, ("new",)), dispatcher)
        assert run_direct(txn.read(K1), dispatcher) == ("new",)

    def test_read_your_own_delete(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("old",)})
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.delete(K1), dispatcher)
        assert run_direct(txn.read(K1), dispatcher) is None

    def test_update_requires_visible_record(self, env):
        _c, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        with pytest.raises(KeyNotFound):
            run_direct(txn.update(data_key(1, 999), ("x",)), dispatcher)

    def test_insert_then_delete_cancels(self, env):
        cluster, _cm, pn, dispatcher = env
        txn = run_direct(pn.begin(), dispatcher)
        txn.insert(K1, ("temp",))
        run_direct(txn.delete(K1), dispatcher)
        run_direct(txn.commit(), dispatcher)
        value, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert value is None

    def test_multiple_updates_collapse_to_one_version(self, env):
        cluster, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.update(K1, ("v1",)), dispatcher)
        run_direct(txn.update(K1, ("v2",)), dispatcher)
        run_direct(txn.commit(), dispatcher)
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert record.get(txn.tid).payload == ("v2",)
        assert len([v for v in record.versions if v.tid == txn.tid]) == 1

    def test_read_many_batches_and_dedups(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("a",), K2: ("b",)})
        txn = run_direct(pn.begin(), dispatcher)
        result = run_direct(txn.read_many([K1, K2, K1]), dispatcher)
        assert result == {K1: ("a",), K2: ("b",)}

    def test_deleted_record_invisible_to_later_snapshots(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("x",)})

        def deleter(txn):
            yield from txn.delete(K1)

        run_direct(pn.run_transaction(deleter), dispatcher)
        txn = run_direct(pn.begin(), dispatcher)
        assert run_direct(txn.read(K1), dispatcher) is None


class TestSnapshotIsolation:
    def test_no_dirty_reads(self, env):
        """A concurrent transaction's buffered writes are invisible."""
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("committed",)})
        writer = run_direct(pn.begin(), dispatcher)
        run_direct(writer.update(K1, ("uncommitted",)), dispatcher)
        reader = run_direct(pn.begin(), dispatcher)
        assert run_direct(reader.read(K1), dispatcher) == ("committed",)

    def test_repeatable_reads_after_concurrent_commit(self, env):
        """A snapshot keeps reading its version even after another
        transaction committed a newer one."""
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        reader = run_direct(pn.begin(), dispatcher)
        assert run_direct(reader.read(K1), dispatcher) == ("v0",)

        def writer(txn):
            yield from txn.update(K1, ("v1",))

        run_direct(pn.run_transaction(writer), dispatcher)
        # fresh read of the same key through a *new* fetch: drop the cache
        reader._records.clear()
        reader._versions.clear()
        assert run_direct(reader.read(K1), dispatcher) == ("v0",)

    def test_write_write_conflict_first_committer_wins(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        a = run_direct(pn.begin(), dispatcher)
        b = run_direct(pn.begin(), dispatcher)
        run_direct(a.update(K1, ("a",)), dispatcher)
        run_direct(b.update(K1, ("b",)), dispatcher)
        run_direct(a.commit(), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(b.commit(), dispatcher)
        check = run_direct(pn.begin(), dispatcher)
        assert run_direct(check.read(K1), dispatcher) == ("a",)

    def test_conflict_scenario_two_from_paper(self, env):
        """T1 reads the item before T2 writes it: T1 must detect the
        conflict when applying (LL/SC fails)."""
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        t1 = run_direct(pn.begin(), dispatcher)
        run_direct(t1.read(K1), dispatcher)

        def t2_logic(txn):
            yield from txn.update(K1, ("t2",))

        run_direct(pn.run_transaction(t2_logic), dispatcher)
        run_direct(t1.update(K1, ("t1",)), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(t1.commit(), dispatcher)

    def test_conflict_scenario_one_from_paper(self, env):
        """T2 commits before T1 reads: T1 sees the newer version exists
        outside its snapshot and conflicts on write."""
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        t1 = run_direct(pn.begin(), dispatcher)

        def t2_logic(txn):
            yield from txn.update(K1, ("t2",))

        run_direct(pn.run_transaction(t2_logic), dispatcher)
        # T1's snapshot predates T2, so it still reads v0 ...
        assert run_direct(t1.read(K1), dispatcher) == ("v0",)
        run_direct(t1.update(K1, ("t1",)), dispatcher)
        # ... and must abort at commit.
        with pytest.raises(TransactionAborted):
            run_direct(t1.commit(), dispatcher)

    def test_disjoint_writes_both_commit(self, env):
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("a0",), K2: ("b0",)})
        a = run_direct(pn.begin(), dispatcher)
        b = run_direct(pn.begin(), dispatcher)
        run_direct(a.update(K1, ("a1",)), dispatcher)
        run_direct(b.update(K2, ("b1",)), dispatcher)
        run_direct(a.commit(), dispatcher)
        run_direct(b.commit(), dispatcher)
        check = run_direct(pn.begin(), dispatcher)
        assert run_direct(check.read_many([K1, K2]), dispatcher) == {
            K1: ("a1",), K2: ("b1",)
        }

    def test_write_skew_is_permitted(self, env):
        """SI famously allows write skew (Section 4.1: SI is not fully
        serializable); document the behaviour with a test."""
        _c, _cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: (50,), K2: (50,)})
        a = run_direct(pn.begin(), dispatcher)
        b = run_direct(pn.begin(), dispatcher)
        # Each reads both, then writes the *other* key (disjoint writes).
        assert run_direct(a.read_many([K1, K2]), dispatcher) == {K1: (50,), K2: (50,)}
        assert run_direct(b.read_many([K1, K2]), dispatcher) == {K1: (50,), K2: (50,)}
        run_direct(a.update(K1, (-10,)), dispatcher)
        run_direct(b.update(K2, (-10,)), dispatcher)
        run_direct(a.commit(), dispatcher)
        run_direct(b.commit(), dispatcher)  # both succeed: the write-skew anomaly

    def test_rollback_after_partial_apply(self, env):
        """A conflicted transaction reverts the updates it had already
        applied (abort path of Section 4.3)."""
        cluster, _cm, pn, dispatcher = env
        keys = [data_key(1, i) for i in range(1, 21)]
        seed(dispatcher, pn, {key: ("init",) for key in keys})
        a = run_direct(pn.begin(), dispatcher)
        b = run_direct(pn.begin(), dispatcher)
        for key in keys:
            run_direct(a.update(key, ("a",)), dispatcher)
        run_direct(b.update(keys[-1], ("b",)), dispatcher)
        run_direct(b.commit(), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(a.commit(), dispatcher)
        # Every record must be free of a's version.
        for key in keys:
            record, _ = cluster.execute(effects.Get(DATA_SPACE, key))
            assert record.get(a.tid) is None

    def test_insert_insert_conflict_on_same_key(self, env):
        _c, _cm, pn, dispatcher = env
        a = run_direct(pn.begin(), dispatcher)
        b = run_direct(pn.begin(), dispatcher)
        a.insert(K1, ("a",))
        b.insert(K1, ("b",))
        run_direct(a.commit(), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(b.commit(), dispatcher)


class TestInterleavedExecution:
    def test_concurrent_increments_never_lose_updates(self, env):
        """N transactions increment a counter with retry; the final value
        equals the number of successful commits (LL/SC prevents lost
        updates under arbitrary interleavings)."""
        cluster, cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: (0,)})

        def increment(txn):
            value = yield from txn.read(K1)
            yield from txn.update(K1, (value[0] + 1,))

        def attempt():
            try:
                yield from pn.run_transaction(increment)
                return True
            except TransactionAborted:
                return False

        results, errors = interleave(
            dispatcher, [attempt() for _ in range(12)]
        )
        assert not any(errors)
        succeeded = sum(1 for r in results if r)
        check = run_direct(pn.begin(), dispatcher)
        assert run_direct(check.read(K1), dispatcher) == (succeeded,)
        assert succeeded >= 1

    def test_eager_gc_prunes_old_versions(self, env):
        cluster, cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})

        def bump(txn):
            value = yield from txn.read(K1)
            yield from txn.update(K1, (value[0] + "x",))

        for _ in range(10):
            run_direct(pn.run_transaction(bump), dispatcher)
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        # With no long-running snapshots the lav advances, so eager GC
        # keeps the version chain short.
        assert len(record) <= 2

    def test_gc_respects_old_active_snapshot(self, env):
        cluster, cm, pn, dispatcher = env
        seed(dispatcher, pn, {K1: ("v0",)})
        old_reader = run_direct(pn.begin(), dispatcher)  # pins the lav

        def bump(txn):
            value = yield from txn.read(K1)
            yield from txn.update(K1, (value[0] + "x",))

        for _ in range(5):
            run_direct(pn.run_transaction(bump), dispatcher)
        # The old reader must still see its version.
        assert run_direct(old_reader.read(K1), dispatcher) == ("v0",)



def sim_run(cluster, cm):
    """``run_direct`` over the simulated fabric: each script is one
    simulated process on PN 0."""
    sim = Simulator()
    fabric = SimFabric(sim, cluster, [cm], SimulationConfig(
        storage_nodes=len(cluster.nodes), partitions_per_node=4))
    pool = CorePool(4)

    def run(script):
        return sim.run_until_complete(sim.spawn(
            drive(fabric, (), pool, 0, script, 0)))

    return run


class TestStorageRefusesTheCommit:
    """A store error during Try-Commit aborts the transaction: its tid
    leaves the commit manager (else it pins the lav for good) and none
    of its versions stays in a record."""

    KEYS = [data_key(1, rid) for rid in range(1, 21)]

    @pytest.mark.parametrize("full_node", [0, 1, 2])
    @pytest.mark.parametrize("driver", ["direct", "sim"])
    def test_no_capacity_aborts_and_rolls_back(self, driver, full_node):
        # RF1 over 3 nodes: the full node refuses the log append when it
        # holds the log entry, else the put batch at its first key.
        cluster = StorageCluster(n_nodes=3, replication_factor=1,
                                 partitions_per_node=4)
        cm = CommitManager(0, cluster.execute, tid_range_size=32)
        pn = ProcessingNode(0)
        if driver == "direct":
            dispatcher = Dispatcher(cluster, cm, pn_id=0)

            def run(script):
                return run_direct(script, dispatcher)
        else:
            run = sim_run(cluster, cm)
        run(pn.run_transaction(inserts({key: ("v0",) for key in self.KEYS})))
        node = cluster.nodes[full_node]
        node.capacity_bytes = node.bytes_used
        txn = run(pn.begin())

        def update_all():
            for key in self.KEYS:
                yield from txn.update(key, ("v1" * 20,))
            yield from txn.commit()

        with pytest.raises(TransactionAborted):
            run(update_all())
        assert txn.state is TxnState.ABORTED
        assert cm.active_tids_of(0) == []
        for stored in cluster.nodes.values():
            for partition in stored.partitions.values():
                for cell in partition.spaces.get(DATA_SPACE, {}).values():
                    assert txn.tid not in cell.value.tids
        entry, _version = cluster.execute(effects.Get(LOG_SPACE, txn.tid))
        assert entry is None or entry.status == STATUS_ABORTED
