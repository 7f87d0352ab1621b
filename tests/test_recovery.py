"""Tests for processing-node recovery (Section 4.4.1)."""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.recovery import discover_from_log, recover_processing_node
from repro.core.spaces import DATA_SPACE, data_key
from repro.core.txlog import TransactionLog
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import TransactionAborted

K1 = data_key(1, 1)
K2 = data_key(1, 2)
K3 = data_key(1, 3)


@pytest.fixture
def env(cluster):
    cm = CommitManager(0, cluster.execute, tid_range_size=16)
    return cluster, cm


def make_pn(cluster, cm, pn_id):
    pn = ProcessingNode(pn_id)
    return pn, Dispatcher(cluster, cm, pn_id=pn_id)


def seed(cluster, cm, rows):
    pn, dispatcher = make_pn(cluster, cm, 99)

    def logic(txn):
        for key, payload in rows.items():
            txn.insert(key, payload)
        return None
        yield

    run_direct(pn.run_transaction(logic), dispatcher)


def crash_mid_commit(cluster, cm, pn_id, writes):
    """Run a transaction up to (and including) applying its updates,
    then 'crash' -- i.e. stop driving the coroutine before the commit
    flag is written."""
    pn, dispatcher = make_pn(cluster, cm, pn_id)
    txn = run_direct(pn.begin(), dispatcher)
    for key, payload in writes.items():
        run_direct(txn.update(key, payload), dispatcher)
    commit = txn.commit()
    # Drive the commit only through the log append + data apply batch.
    result = None
    applied = False
    while not applied:
        request = commit.send(result)
        result = dispatcher.execute(request)
        if isinstance(request, effects.Batch) \
                and request.expected is not None:
            applied = True
    return txn  # crashed: commit never completed


class TestRecovery:
    def test_mid_commit_transaction_rolled_back(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",), K2: ("w0",)})
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",), K2: ("bad",)})
        # The partially committed version is physically present...
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert record.get(crashed.tid) is not None

        _pn, dispatcher = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            recover_processing_node(5, [cm], TransactionLog()),
            dispatcher,
        )
        assert crashed.tid in rolled_back
        for key in (K1, K2):
            record, _ = cluster.execute(effects.Get(DATA_SPACE, key))
            assert record.get(crashed.tid) is None

    def test_rollback_precedes_completing_the_tid(self, env, monkeypatch):
        """The commit manager learns a dead node's tid is aborted only
        after every version that tid wrote is gone: a completed tid lets
        the base version pass it, and a version still in the store would
        then read as committed."""
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",), K2: ("w0",)})
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",), K2: ("bad",)})
        calls = []
        set_aborted = cm.set_aborted

        def checking(tid):
            left = [key for key in (K1, K2) if cluster.execute(
                effects.Get(DATA_SPACE, key))[0].get(tid) is not None]
            calls.append((tid, left))
            return set_aborted(tid)

        monkeypatch.setattr(cm, "set_aborted", checking)
        _pn, dispatcher = make_pn(cluster, cm, 0)
        run_direct(recover_processing_node(5, [cm], TransactionLog()), dispatcher)
        assert calls == [(crashed.tid, [])]

    def test_commit_rollback_and_recovery_share_one_removal(
            self, env, monkeypatch):
        """Commit-time rollback and PN recovery undo a version through
        the same function: patched once, both paths see it."""
        from repro.core import recovery

        removed = []
        real = recovery.remove_version

        def spy(key, tid):
            removed.append((key, tid))
            return (yield from real(key, tid))

        monkeypatch.setattr(recovery, "remove_version", spy)
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",), K2: ("w0",)})
        # Recovery of a mid-commit crash.
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",)})
        pn, dispatcher = make_pn(cluster, cm, 0)
        run_direct(recover_processing_node(5, [cm], TransactionLog()), dispatcher)
        assert removed == [(K1, crashed.tid)]
        # Commit-time rollback: the loser applied K1, then lost K2.
        loser = run_direct(pn.begin(), dispatcher)
        winner = run_direct(pn.begin(), dispatcher)
        run_direct(loser.update(K1, ("l",)), dispatcher)
        run_direct(loser.update(K2, ("l",)), dispatcher)
        run_direct(winner.update(K2, ("w",)), dispatcher)
        run_direct(winner.commit(), dispatcher)
        with pytest.raises(TransactionAborted):
            run_direct(loser.commit(), dispatcher)
        assert removed[1:] == [(K1, loser.tid)]
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert record.get(loser.tid) is None

    def test_recovery_completes_tids_so_base_advances(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",)})
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",)})
        base_before = cm.completed.base
        _pn, dispatcher = make_pn(cluster, cm, 0)
        run_direct(recover_processing_node(5, [cm], TransactionLog()), dispatcher)
        assert cm.completed.contains(crashed.tid)
        assert cm.active_tids_of(5) == []

    def test_active_but_not_applying_needs_no_rollback(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",)})
        pn, dispatcher = make_pn(cluster, cm, 5)
        txn = run_direct(pn.begin(), dispatcher)
        run_direct(txn.update(K1, ("never-applied",)), dispatcher)
        # crash before commit: updates were only buffered on the PN
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            recover_processing_node(5, [cm], TransactionLog()),
            dispatcher0,
        )
        assert rolled_back == []  # nothing applied, nothing to roll back
        assert cm.completed.contains(txn.tid)
        check_pn, check_dispatcher = make_pn(cluster, cm, 0)
        check = run_direct(check_pn.begin(), check_dispatcher)
        assert run_direct(check.read(K1), check_dispatcher) == ("v0",)

    def test_committed_transactions_left_alone(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",)})
        pn, dispatcher = make_pn(cluster, cm, 5)

        def logic(txn):
            yield from txn.update(K1, ("committed",))

        run_direct(pn.run_transaction(logic), dispatcher)
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            recover_processing_node(5, [cm], TransactionLog()),
            dispatcher0,
        )
        assert rolled_back == []
        check = run_direct(_pn0.begin(), dispatcher0)
        assert run_direct(check.read(K1), dispatcher0) == ("committed",)

    def test_recovery_only_touches_failed_pn(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",), K2: ("w0",)})
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",)})
        survivor = crash_mid_commit(cluster, cm, 6, {K2: ("pending",)})
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            recover_processing_node(5, [cm], TransactionLog()),
            dispatcher0,
        )
        assert rolled_back == [crashed.tid]
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K2))
        assert record.get(survivor.tid) is not None  # untouched

    def test_multiple_failed_transactions_one_recovery(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: ("a",), K2: ("b",), K3: ("c",)})
        t1 = crash_mid_commit(cluster, cm, 5, {K1: ("x",)})
        t2 = crash_mid_commit(cluster, cm, 5, {K2: ("y",), K3: ("z",)})
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            recover_processing_node(5, [cm], TransactionLog()),
            dispatcher0,
        )
        assert set(rolled_back) == {t1.tid, t2.tid}

    def test_discovery_from_log_walk(self, env):
        """The fallback walk (highest tid down to the lav) finds the same
        transactions without commit-manager state."""
        cluster, cm = env
        seed(cluster, cm, {K1: ("v0",)})
        crashed = crash_mid_commit(cluster, cm, 5, {K1: ("bad",)})
        highest = cm.last_assigned_tid
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        rolled_back = run_direct(
            discover_from_log(5, highest, 0, TransactionLog()),
            dispatcher0,
        )
        assert crashed.tid in rolled_back
        record, _ = cluster.execute(effects.Get(DATA_SPACE, K1))
        assert record.get(crashed.tid) is None

    def test_recovered_state_is_consistent_for_new_transactions(self, env):
        cluster, cm = env
        seed(cluster, cm, {K1: (100,), K2: (200,)})
        crash_mid_commit(cluster, cm, 5, {K1: (1,), K2: (2,)})
        _pn0, dispatcher0 = make_pn(cluster, cm, 0)
        run_direct(recover_processing_node(5, [cm], TransactionLog()), dispatcher0)
        txn = run_direct(_pn0.begin(), dispatcher0)
        values = run_direct(txn.read_many([K1, K2]), dispatcher0)
        assert values == {K1: (100,), K2: (200,)}


class TestDatabaseLevelRecovery:
    def test_crash_processing_node_api(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        # open a transaction on a second PN and leave it hanging
        other = db.session()
        other.execute("BEGIN")
        other.execute("UPDATE t SET v = 99 WHERE id = 1")
        db.crash_processing_node(other.pn.pn_id)
        rows = session.query("SELECT v FROM t WHERE id = 1")
        assert rows == [{"v": 10}]
