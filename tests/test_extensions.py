"""Tests for the extensions beyond the paper's shipped system:

* SELECT FOR UPDATE / conflict materialization (closing SI's write-skew
  gap selectively);
* interleaved tid assignment (the paper's stated near-future work);
* storage-node failure *during* a simulated TPC-C run.
"""

import pytest

from repro.api import Database
from repro.core.commit_manager import CommitManager
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import InvalidState, SqlPlanError, TransactionAborted
from repro.store.cluster import StorageCluster


class TestForUpdate:
    @pytest.fixture
    def db(self):
        db = Database()
        session = db.session()
        session.execute(
            "CREATE TABLE doctors (id INT PRIMARY KEY, on_call INT)"
        )
        session.execute("INSERT INTO doctors VALUES (1, 1), (2, 1)")
        return db

    def test_write_skew_without_for_update(self, db):
        """Baseline: plain SI permits the write-skew anomaly."""
        a, b = db.session(), db.session()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.query("SELECT * FROM doctors WHERE on_call = 1")
        b.query("SELECT * FROM doctors WHERE on_call = 1")
        a.execute("UPDATE doctors SET on_call = 0 WHERE id = 1")
        b.execute("UPDATE doctors SET on_call = 0 WHERE id = 2")
        a.execute("COMMIT")
        b.execute("COMMIT")  # both commit: nobody is on call any more
        check = db.session()
        rows = check.query("SELECT COUNT(*) AS n FROM doctors WHERE on_call = 1")
        assert rows == [{"n": 0}]

    def test_for_update_prevents_write_skew(self, db):
        a, b = db.session(), db.session()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.query("SELECT * FROM doctors WHERE on_call = 1 FOR UPDATE")
        b.query("SELECT * FROM doctors WHERE on_call = 1 FOR UPDATE")
        a.execute("UPDATE doctors SET on_call = 0 WHERE id = 1")
        b.execute("UPDATE doctors SET on_call = 0 WHERE id = 2")
        a.execute("COMMIT")
        with pytest.raises(TransactionAborted):
            b.execute("COMMIT")
        check = db.session()
        rows = check.query("SELECT COUNT(*) AS n FROM doctors WHERE on_call = 1")
        assert rows == [{"n": 1}]

    def test_for_update_read_only_still_conflicts(self, db):
        """Even a transaction that writes nothing else conflicts when its
        FOR UPDATE row is concurrently modified."""
        a, b = db.session(), db.session()
        a.execute("BEGIN")
        a.query("SELECT * FROM doctors WHERE id = 1 FOR UPDATE")
        b.execute("UPDATE doctors SET on_call = 5 WHERE id = 1")
        with pytest.raises(TransactionAborted):
            a.execute("COMMIT")

    def test_for_update_rejected_on_joins(self, db):
        session = db.session()
        session.execute("BEGIN")
        with pytest.raises(SqlPlanError):
            session.query(
                "SELECT * FROM doctors a JOIN doctors b ON a.id = b.id "
                "FOR UPDATE"
            )
        session.execute("ROLLBACK")

    def test_table_lock_api(self, db):
        session = db.session()
        other = db.session()
        session.execute("BEGIN")
        table = session.table("doctors")
        run_direct(table.lock((1,)), session.dispatcher)
        other.execute("UPDATE doctors SET on_call = 9 WHERE id = 1")
        with pytest.raises(TransactionAborted):
            session.commit()


class TestInterleavedTids:
    def test_uniqueness_across_managers(self):
        store = StorageCluster(n_nodes=2)
        managers = [
            CommitManager(i, store.execute, interleaved=True, n_managers=3)
            for i in range(3)
        ]
        tids = [m.start().tid for m in managers for _ in range(20)]
        assert len(set(tids)) == 60

    def test_residue_classes(self):
        store = StorageCluster(n_nodes=2)
        manager = CommitManager(
            1, store.execute, interleaved=True, n_managers=3
        )
        for _ in range(5):
            assert manager.start().tid % 3 == 2  # cm_id 1 -> residue 2

    def test_no_shared_counter_round_trips(self):
        store = StorageCluster(n_nodes=2)
        manager = CommitManager(
            0, store.execute, interleaved=True, n_managers=2
        )
        for _ in range(100):
            assert manager.start().range_refilled is False
        assert manager.range_refills == 0

    def test_idle_manager_does_not_stall_base(self):
        store = StorageCluster(n_nodes=2)
        busy = CommitManager(0, store.execute, interleaved=True, n_managers=2)
        idle = CommitManager(1, store.execute, interleaved=True, n_managers=2)
        for _ in range(30):
            busy.set_committed(busy.start().tid)
        busy.sync([0, 1])
        idle.sync([0, 1])
        busy.sync([0, 1])
        assert busy.completed.base >= 30

    def test_retired_tids_never_assigned(self):
        store = StorageCluster(n_nodes=2)
        busy = CommitManager(0, store.execute, interleaved=True, n_managers=2)
        idle = CommitManager(1, store.execute, interleaved=True, n_managers=2)
        for _ in range(20):
            busy.set_committed(busy.start().tid)
        busy.sync([0, 1])
        idle.sync([0, 1])  # retires a prefix of idle's stripe
        fresh = idle.start().tid
        assert not idle.completed.contains(fresh), (
            "an assigned tid must not be pre-completed"
        )

    def test_invalid_configuration(self):
        store = StorageCluster(n_nodes=2)
        with pytest.raises(InvalidState):
            CommitManager(5, store.execute, interleaved=True, n_managers=2)

    def test_database_integration(self):
        db = Database(commit_managers=2, interleaved_tids=True)
        a, b = db.session(), db.session()
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        b.refresh_catalog()
        a.execute("INSERT INTO t VALUES (1, 1)")
        db.sync_commit_managers()
        b.execute("UPDATE t SET v = 2 WHERE id = 1")
        db.sync_commit_managers()
        assert a.query("SELECT v FROM t WHERE id = 1") == [{"v": 2}]


class TestStorageFailureDuringRun:
    def test_sn_crash_mid_simulation(self):
        """Crash a storage node mid-run (RF2): the management node fails
        over, the workload continues, and the final state is consistent."""
        from repro.workloads.simulated import SimulatedTell, TellConfig
        from repro.store.management import ManagementNode
        from repro.workloads.tpcc.params import TpccScale

        config = TellConfig(
            processing_nodes=2, storage_nodes=4, replication_factor=2,
            threads_per_pn=6, scale=TpccScale.tiny(4),
            duration_us=120_000.0, warmup_us=0.0, seed=9,
        )
        deployment = SimulatedTell(config)
        deployment.load()
        management = ManagementNode(deployment.cluster)

        def crash_and_recover():
            deployment.cluster.nodes[1].crash()
            management.handle_node_failure(1)

        deployment.sim.call_at(60_000.0, crash_and_recover)
        metrics = deployment.run()
        deployment.quiesce()

        assert metrics.total_committed > 50
        # all data still served, replicas consistent
        from repro import effects

        rows = deployment.cluster.execute(effects.Scan("data", None, None))
        assert len(rows) > 1000
        # TPC-C money invariant still holds after the failure
        catalog = deployment.catalog
        from repro.core.processing_node import ProcessingNode
        from repro.sql.table import IndexManager, Table

        pn = ProcessingNode(80)
        dispatcher = Dispatcher(deployment.cluster,
                                deployment.commit_managers[0], pn_id=80)
        txn = run_direct(pn.begin(), dispatcher)
        warehouses = run_direct(
            Table(catalog.table("warehouse"), txn, IndexManager()).scan(),
            dispatcher,
        )
        districts = run_direct(
            Table(catalog.table("district"), txn, IndexManager()).scan(),
            dispatcher,
        )
        run_direct(txn.commit(), dispatcher)
        w_schema = catalog.table("warehouse")
        d_schema = catalog.table("district")
        for _rid, warehouse in warehouses:
            w_id = warehouse[w_schema.position("w_id")]
            w_ytd = warehouse[w_schema.position("w_ytd")]
            d_sum = sum(
                d[d_schema.position("d_ytd")]
                for _r, d in districts
                if d[d_schema.position("d_w_id")] == w_id
            )
            n_districts = sum(
                1 for _r, d in districts
                if d[d_schema.position("d_w_id")] == w_id
            )
            assert w_ytd - 300_000.0 == pytest.approx(
                d_sum - 30_000.0 * n_districts, abs=0.05
            )
