"""Tests for lazy garbage collection (Section 5.4)."""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.gc import GcStats, lazy_gc_loop, lazy_gc_pass
from repro.core.processing_node import ProcessingNode
from repro.core.spaces import DATA_SPACE, data_key
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.store.cluster import StorageCluster

K1 = data_key(1, 1)


@pytest.fixture
def env():
    cluster = StorageCluster(n_nodes=2)
    cm = CommitManager(0, cluster.execute)
    pn = ProcessingNode(0)
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    return cluster, cm, pn, dispatcher


def bump_n_times(pn, dispatcher, key, n):
    def bump(txn):
        value = yield from txn.read(key)
        yield from txn.update(key, (value[0] + 1,))

    for _ in range(n):
        run_direct(pn.run_transaction(bump), dispatcher)


class TestLazyGcPass:
    def test_prunes_versions_below_lav(self, env):
        cluster, cm, pn, dispatcher = env
        # Hold an old snapshot so eager GC cannot prune during the run...
        def init(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)
        pin = run_direct(pn.begin(), dispatcher)
        bump_n_times(pn, dispatcher, K1, 5)
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert len(record) > 2
        # ... then release it and sweep.
        run_direct(pin.abort(), dispatcher)
        stats = run_direct(lazy_gc_pass(cm.lowest_active_version()), dispatcher)
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert len(record) == 1
        assert stats.versions_removed >= 4

    def test_removes_fully_deleted_records(self, env):
        cluster, cm, pn, dispatcher = env

        def init(txn):
            txn.insert(K1, ("x",))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)

        def deleter(txn):
            yield from txn.delete(K1)

        run_direct(pn.run_transaction(deleter), dispatcher)
        run_direct(lazy_gc_pass(cm.lowest_active_version()), dispatcher)
        value, version = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert value is None and version == 0
        # cell is really gone: insert at version 0 works again
        ok, _ = cluster.execute(
            effects.PutIfVersion(DATA_SPACE, K1, "fresh", 0)
        )
        assert ok

    def test_respects_active_snapshots(self, env):
        cluster, cm, pn, dispatcher = env

        def init(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)
        pin = run_direct(pn.begin(), dispatcher)
        bump_n_times(pn, dispatcher, K1, 3)
        run_direct(lazy_gc_pass(cm.lowest_active_version()), dispatcher)
        # The pinned snapshot must still read its version.
        assert run_direct(pin.read(K1), dispatcher) == (0,)

    def test_commit_between_scan_and_prune_survives(self, env):
        """The prune write is conditioned on the version the scan saw: a
        transaction committing in between wins, and its write stays
        readable.  Kills the unconditional ``Put`` prune
        (``gc_unconditional_prune`` in tests/kill_matrix.py)."""
        cluster, cm, pn, dispatcher = env

        def init(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)
        pin = run_direct(pn.begin(), dispatcher)
        bump_n_times(pn, dispatcher, K1, 3)  # pinned: eager GC keeps 4 versions
        run_direct(pin.abort(), dispatcher)

        sweep = lazy_gc_pass(cm.lowest_active_version())
        scan = next(sweep)
        assert isinstance(scan, effects.Scan)
        prune = sweep.send(cluster.execute(scan))
        bump_n_times(pn, dispatcher, K1, 1)  # commits between scan and prune
        try:
            sweep.send(cluster.execute(prune))
        except StopIteration:
            pass

        final = run_direct(pn.begin(), dispatcher)
        assert run_direct(final.read(K1), dispatcher) == (4,)

    def test_stats_accounting(self, env):
        cluster, cm, pn, dispatcher = env

        def init(txn):
            for i in range(5):
                txn.insert(data_key(1, i), (i,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)
        stats = GcStats()
        run_direct(lazy_gc_pass(cm.lowest_active_version(), stats), dispatcher)
        assert stats.passes == 1
        assert stats.records_seen == 5
        assert stats.versions_removed == 0  # single versions are kept


class TestLazyGcLoop:
    def test_loop_runs_in_simulated_time(self, env):
        cluster, cm, pn, dispatcher = env

        def init(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)
        bump_n_times(pn, dispatcher, K1, 4)

        from repro.sim.kernel import Delay, Simulator

        sim = Simulator()
        stats = GcStats()

        def driver():
            generator = lazy_gc_loop(
                cm.lowest_active_version, interval_us=1000.0, stats=stats
            )
            value = None
            while True:
                request = generator.send(value)
                if isinstance(request, effects.Sleep):
                    yield Delay(request.duration)
                    value = None
                else:
                    value = cluster.execute(request)

        sim.spawn(driver())
        sim.run(until=3500.0)
        assert stats.passes == 3
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert len(record) == 1
