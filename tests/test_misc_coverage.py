"""Edge cases across modules: commit paths, rid ranges, CLI, profiles."""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.spaces import data_key
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import TransactionAborted
from tests.conftest import every_entry_live


@pytest.fixture
def env(cluster):
    cm = CommitManager(0, cluster.execute, tid_range_size=16)
    pn = ProcessingNode(0, rid_range_size=4)
    dispatcher = Dispatcher(cluster, cm, pn_id=0)
    return cluster, cm, pn, dispatcher


class TestRidAllocation:
    def test_ranges_are_contiguous_per_refill(self, env):
        _c, _cm, pn, dispatcher = env
        rids = [run_direct(pn.allocate_rid(1), dispatcher) for _ in range(10)]
        assert rids == list(range(1, 11))

    def test_independent_per_table(self, env):
        _c, _cm, pn, dispatcher = env
        a = run_direct(pn.allocate_rid(1), dispatcher)
        b = run_direct(pn.allocate_rid(2), dispatcher)
        assert a == 1 and b == 1

    def test_two_pns_never_collide(self, env):
        cluster, cm, pn, dispatcher = env
        other_pn = ProcessingNode(1, rid_range_size=4)
        other_dispatcher = Dispatcher(cluster, cm, pn_id=1)
        mine = {run_direct(pn.allocate_rid(1), dispatcher) for _ in range(12)}
        theirs = {run_direct(other_pn.allocate_rid(1), other_dispatcher) for _ in range(12)}
        assert mine.isdisjoint(theirs)


class TestRunTransactionRetry:
    def test_retries_until_success(self, env):
        cluster, cm, pn, dispatcher = env
        key = data_key(1, 1)

        def init(txn):
            txn.insert(key, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)

        # Sabotage: the first attempt gets invalidated by a concurrent
        # commit between its read and its commit.
        state = {"sabotaged": False}

        def logic(txn):
            value = yield from txn.read(key)
            if not state["sabotaged"]:
                state["sabotaged"] = True

                def interloper(other):
                    inner = yield from other.read(key)
                    yield from other.update(key, (inner[0] + 100,))

                yield from pn.run_transaction(interloper)
            yield from txn.update(key, (value[0] + 1,))

        result, attempts = run_direct(pn.run_transaction(logic, max_attempts=3), dispatcher)
        assert attempts == 2

    def test_raises_after_max_attempts(self, env):
        cluster, cm, pn, dispatcher = env
        key = data_key(1, 2)

        def init(txn):
            txn.insert(key, (0,))
            return None
            yield

        run_direct(pn.run_transaction(init), dispatcher)

        def always_conflicting(txn):
            value = yield from txn.read(key)

            def interloper(other):
                inner = yield from other.read(key)
                yield from other.update(key, (inner[0] + 1,))

            yield from pn.run_transaction(interloper)
            yield from txn.update(key, (value[0] - 1,))

        with pytest.raises(TransactionAborted):
            run_direct(pn.run_transaction(always_conflicting, max_attempts=2), dispatcher)


class TestClusterScanLimit:
    def test_global_limit_after_merge(self, cluster):
        for i in range(100):
            cluster.execute(effects.Put("data", i, i))
        rows = cluster.execute(effects.Scan("data", None, None, limit=10))
        assert [key for key, _v, _c in rows] == list(range(10))


class TestBenchCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        from repro.bench.experiments import EXPERIMENTS

        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(EXPERIMENTS)

    def test_unknown_experiment(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_table1_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table1"]) == 0
        assert "Oracle RAC" in capsys.readouterr().out


class TestBenchProfiles:
    def test_default_profile(self, monkeypatch):
        from repro.bench.experiments import bench_profile

        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert bench_profile().name == "quick"

    def test_env_selection(self, monkeypatch):
        from repro.bench.experiments import bench_profile

        monkeypatch.setenv("REPRO_BENCH_PROFILE", "smoke")
        assert bench_profile().name == "smoke"

    def test_unknown_profile(self, monkeypatch):
        from repro.bench.experiments import bench_profile

        monkeypatch.setenv("REPRO_BENCH_PROFILE", "galactic")
        with pytest.raises(ValueError):
            bench_profile()

    def test_scales_are_ordered(self):
        from repro.bench.experiments import PROFILES

        assert (PROFILES["smoke"].warehouses
                < PROFILES["quick"].warehouses
                < PROFILES["full"].warehouses)


class TestCommitEdgeCases:
    def test_commit_after_user_abort_rejected(self, env):
        _c, _cm, pn, dispatcher = env
        from repro.errors import InvalidState

        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.abort(), dispatcher)
        with pytest.raises(InvalidState):
            run_direct(txn.commit(), dispatcher)

    def test_duplicate_index_key_rolls_back_data(self, env):
        """A commit that fails on a unique-index insert must leave no
        trace of its data writes."""
        cluster, _cm, pn, dispatcher = env
        from repro.index.btree import DistributedBTree

        tree = DistributedBTree(index_id=9, max_entries=8)
        run_direct(tree.create(), dispatcher)
        run_direct(tree.insert(("taken",), 99, unique=every_entry_live), dispatcher)

        txn = run_direct(pn.begin(), dispatcher)
        key = data_key(3, 1)
        txn.insert(key, ("payload",))
        txn.index_ops.append((tree, ("taken",), 1, every_entry_live))
        with pytest.raises(TransactionAborted):
            run_direct(txn.commit(), dispatcher)
        record, _ = cluster.execute(effects.Get("data", key))
        assert record is None

    def test_write_after_commit_rejected(self, env):
        _c, _cm, pn, dispatcher = env
        from repro.errors import InvalidState

        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.commit(), dispatcher)
        with pytest.raises(InvalidState):
            txn.insert(data_key(1, 5), ("x",))
