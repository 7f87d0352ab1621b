"""Tests for commit-manager failure and replacement (Section 4.4.3),
plus transient-storage-error handling: retries live in the dispatch
pipeline's :class:`~repro.dispatch.RetryPolicy`, not in ad-hoc loops
inside the protocol code."""

import pytest

from repro.api import Database
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import FaultInjector, FaultRule, RetryPolicy
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import InvalidState, NodeUnavailable, TransactionAborted
from repro.store.cluster import StorageCluster
from tests.conftest import host_clock_trap


class TestCommitManagerFailover:
    def test_replacement_serves_fresh_tids(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 1)")
        old_top = db.commit_managers[0].last_assigned_tid
        db.crash_commit_manager(0)
        session.execute("UPDATE t SET v = 2 WHERE id = 1")
        assert db.commit_managers[0].last_assigned_tid > old_top

    def test_data_visible_after_failover(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.crash_commit_manager(0)
        # New transactions through the replacement see committed data.
        rows = session.query("SELECT SUM(v) AS s FROM t")
        assert rows == [{"s": 30}]

    def test_refuses_with_active_transactions(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(InvalidState):
            db.crash_commit_manager(0)
        session.execute("ROLLBACK")
        db.crash_commit_manager(0)  # now allowed

    def test_sessions_rewired_to_replacement(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        replacement = db.crash_commit_manager(0)
        assert session.dispatcher.commit_manager is replacement

    def test_conflict_detection_still_works_after_failover(self):
        # Also the clock trap's failover run: replacing the manager and
        # deciding the conflict read no host clock and no global RNG.
        with host_clock_trap() as trapped:
            db = Database()
            session = db.session()
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            session.execute("INSERT INTO t VALUES (1, 0)")
            db.crash_commit_manager(0)
            a, b = db.session(), db.session()
            a.execute("BEGIN")
            b.execute("BEGIN")
            a.execute("UPDATE t SET v = 1 WHERE id = 1")
            b.execute("UPDATE t SET v = 2 WHERE id = 1")
            a.execute("COMMIT")
            with pytest.raises(TransactionAborted):
                b.execute("COMMIT")
        assert trapped == []

    def test_multi_manager_failover_uses_peer_state(self):
        db = Database(commit_managers=2)
        a = db.session()  # CM 0
        b = db.session()  # CM 1
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        b.refresh_catalog()
        a.execute("INSERT INTO t VALUES (1, 1)")
        db.sync_commit_managers()
        replacement = db.crash_commit_manager(0)
        db.sync_commit_managers()
        # Transactions through both managers still work and agree.
        a.execute("UPDATE t SET v = 5 WHERE id = 1")
        db.sync_commit_managers()
        assert b.query("SELECT v FROM t WHERE id = 1") == [{"v": 5}]

    def test_failover_with_drained_peers_advances_base(self):
        db = Database(commit_managers=2)
        a = db.session()
        a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(10):
            a.execute("INSERT INTO t VALUES (?)", [i])
        replacement = db.crash_commit_manager(0)
        assert replacement.completed.base >= 10


class TestInterleavedRecovery:
    """``CommitManager.recover`` with the interleaved tid scheme, and
    ``absorb_peers`` interacting with stripe retirement."""

    def _pair(self):
        cluster = StorageCluster(n_nodes=2, replication_factor=1)
        cm0 = CommitManager(0, cluster.execute, interleaved=True,
                            n_managers=2)
        cm1 = CommitManager(1, cluster.execute, interleaved=True,
                            n_managers=2)
        return cluster, cm0, cm1

    def test_absorb_peers_after_stripe_retirement_advances_base(self):
        cluster, cm0, cm1 = self._pair()
        # CM 1 is busy: assigns and completes ten tids (2, 4, ..., 20).
        for _ in range(10):
            start = cm1.start()
            cm1.set_committed(start.tid)
        cm1.publish_state()
        # Idle CM 0 syncs: absorbs CM 1's view, then retires its own
        # unassigned stripe tids the peer raced past (1, 3, ..., 19).
        cm0.sync([0, 1])
        assert cm0.completed.base >= 19
        # Retired tids are skipped by assignment, never reused.
        assert cm0.start().tid == 21

    def test_recover_preserves_stripe_discipline(self):
        """A recovered interleaved manager must not reassign any tid its
        crashed predecessor may have handed out (seed bug: recover()
        dropped interleaved/n_managers and restarted the stripe at 1)."""
        cluster, cm0, cm1 = self._pair()
        assigned = [cm0.start().tid for _ in range(5)]  # 1, 3, 5, 7, 9
        for tid in assigned:
            cm0.set_committed(tid)
        cm1.start()  # peer holds tid 2
        cm0.publish_state()
        cm1.publish_state()
        replacement = CommitManager.recover(
            0, cluster.execute, peer_ids=[1],
            interleaved=True, n_managers=2,
        )
        assert replacement.interleaved
        assert replacement.n_managers == 2
        fresh = replacement.start().tid
        assert fresh % 2 == 1  # still CM 0's residue class
        assert fresh > max(assigned)

    def test_recover_skips_past_peer_horizon(self):
        """Even tids the *predecessor* never assigned are skipped when a
        synced peer already raced past them: the predecessor might have
        assigned them between its last publication and the crash."""
        cluster, cm0, cm1 = self._pair()
        cm0.publish_state()  # publishes last_assigned_tid == 0
        for _ in range(10):
            start = cm1.start()
            cm1.set_committed(start.tid)
        cm1.publish_state()
        replacement = CommitManager.recover(
            0, cluster.execute, peer_ids=[1],
            interleaved=True, n_managers=2,
        )
        # highest known tid is 20 (from the peer): stripe resumes above.
        assert replacement.start().tid == 21
        # The skipped stripe tids were marked completed, so the global
        # base can advance past them once the peer's tids complete.
        assert replacement.completed_view().contains(19)

    def test_embedded_interleaved_failover_end_to_end(self):
        db = Database(commit_managers=2, interleaved_tids=True)
        a = db.session()  # CM 0
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(5):
            a.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        high = db.commit_managers[0].last_assigned_tid
        db.sync_commit_managers()
        replacement = db.crash_commit_manager(0)
        assert replacement.interleaved
        a.execute("UPDATE t SET v = 99 WHERE id = 0")
        assert replacement.last_assigned_tid > high
        assert replacement.last_assigned_tid % 2 == 1
        assert a.query("SELECT v FROM t WHERE id = 0") == [{"v": 99}]


class TestValidatorFailover:
    """The WSI/SSI validator across commit-manager replacement."""

    def test_single_manager_failover_replaces_the_validator(self):
        db = Database(isolation="wsi")
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 1)")
        lost = db.validator
        replacement = db.crash_commit_manager(0)
        # The only holder crashed: the deployment gets a fresh validator
        # with a recovery horizon, not the lost window.
        assert db.validator is not lost
        assert replacement.validator is db.validator
        assert replacement.isolation_name == "wsi"
        assert db.validator._validation_horizon > 0
        # Post-crash transactions start above the horizon and validate.
        before = replacement.validations
        session.execute("UPDATE t SET v = 2 WHERE id = 1")
        assert replacement.validations > before
        assert session.query("SELECT v FROM t WHERE id = 1") == [{"v": 2}]

    def test_multi_manager_failover_keeps_the_shared_validator(self):
        db = Database(isolation="ssi", commit_managers=2)
        shared = db.validator
        session = db.session()  # CM 0
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 1)")
        db.sync_commit_managers()
        replacement = db.crash_commit_manager(0)
        # A live peer still holds the shared validation state.
        assert db.validator is shared
        assert replacement.validator is shared
        assert shared._validation_horizon == 0
        session.execute("UPDATE t SET v = 2 WHERE id = 1")
        assert session.query("SELECT v FROM t WHERE id = 1") == [{"v": 2}]

    def test_si_failover_keeps_validator_none(self):
        db = Database()
        db.session().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        replacement = db.crash_commit_manager(0)
        assert db.validator is None
        assert replacement.validator is None
        assert replacement.isolation_name == "si"


class TestTransientStorageErrors:
    """Transient ``NodeUnavailable`` from the store is absorbed by the
    centralized :class:`RetryPolicy` interceptor; the protocol coroutines
    never see it and the transactions commit normally."""

    def _flaky_dispatcher(self, db, error_rate=0.2, max_attempts=8, seed=5):
        retry = RetryPolicy(max_attempts=max_attempts, backoff_us=10.0)
        # Commit applies its write set via Batch; reads hit "data" directly.
        fault = FaultInjector(seed=seed, rules=[
            FaultRule(op="Batch", error_rate=error_rate),
            FaultRule(space="data", error_rate=error_rate),
        ])
        dispatcher = Dispatcher(
            db.cluster, db.commit_managers[0], pn_id=42,
            interceptors=[retry, fault],
        )
        return dispatcher, retry, fault

    def test_retry_policy_masks_flaky_store(self):
        db = Database()
        pn = ProcessingNode(42)
        dispatcher, retry, fault = self._flaky_dispatcher(db)
        for key in range(40):
            txn = run_direct(pn.begin(), dispatcher)
            txn.insert(("t", key), (key,))
            run_direct(txn.commit(), dispatcher)
        assert fault.injected_errors > 0, "the fault never fired"
        assert retry.retries == fault.injected_errors
        # Every write survived the flakiness.
        check = run_direct(pn.begin(), dispatcher)
        for key in range(40):
            assert run_direct(check.read(("t", key)), dispatcher) == (key,)

    def test_without_retry_the_error_aborts_the_transaction(self):
        db = Database()
        pn = ProcessingNode(42)
        fault = FaultInjector(seed=5, rules=[
            FaultRule(op="Batch", error_rate=1.0),
        ])
        dispatcher = Dispatcher(db.cluster, db.commit_managers[0], pn_id=42,
                                interceptors=[fault])
        txn = run_direct(pn.begin(), dispatcher)
        txn.insert(("t", 0), (0,))
        with pytest.raises((NodeUnavailable, TransactionAborted)):
            run_direct(txn.commit(), dispatcher)
