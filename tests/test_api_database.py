"""Tests for the embedded Database API and sessions."""

import pytest

from repro.api import Database
from repro.errors import InvalidState, SqlSyntaxError


class TestDatabaseAssembly:
    def test_defaults(self):
        db = Database()
        assert len(db.cluster.nodes) == 3
        assert len(db.commit_managers) == 1

    def test_replicated(self):
        db = Database(storage_nodes=3, replication_factor=3)
        assert db.cluster.replication_factor == 3

    def test_requires_commit_manager(self):
        with pytest.raises(InvalidState):
            Database(commit_managers=0)

    def test_multiple_commit_managers_round_robin(self):
        db = Database(commit_managers=2)
        a = db.session()
        b = db.session()
        cm_a = db._dispatchers[a.pn.pn_id].commit_manager
        cm_b = db._dispatchers[b.pn.pn_id].commit_manager
        assert cm_a is not cm_b

    def test_buffering_strategy_selection(self):
        db = Database(buffering="sb")
        session = db.session()
        assert session.pn.buffers.name == "sb"


class TestElasticity:
    def test_add_remove_processing_nodes(self):
        db = Database()
        first = db.session()
        first.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        first.execute("INSERT INTO t VALUES (1, 1)")
        # new PNs see the data immediately -- no re-partitioning
        second = db.session()
        assert second.query("SELECT v FROM t") == [{"v": 1}]
        db.remove_processing_node(second.pn.pn_id)
        assert first.query("SELECT v FROM t") == [{"v": 1}]

    def test_many_sessions_share_data(self):
        db = Database()
        sessions = [db.session() for _ in range(4)]
        sessions[0].execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i, session in enumerate(sessions):
            session.execute("INSERT INTO t VALUES (?, ?)", [i, i * 10])
        total = sessions[3].query("SELECT COUNT(*) AS n FROM t")
        assert total == [{"n": 4}]

    def test_storage_elasticity(self):
        db = Database(storage_nodes=2)
        with db.admin() as admin:
            admin.add_storage_node()
        assert len(db.cluster.nodes) == 3


class TestSessionBehaviour:
    def test_double_begin_rejected(self):
        session = Database().session()
        session.execute("BEGIN")
        with pytest.raises(InvalidState):
            session.execute("BEGIN")

    def test_commit_without_begin_rejected(self):
        session = Database().session()
        with pytest.raises(InvalidState):
            session.execute("COMMIT")

    def test_ddl_inside_transaction_rejected(self):
        session = Database().session()
        session.execute("BEGIN")
        with pytest.raises(InvalidState):
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")

    def test_syntax_error_propagates(self):
        session = Database().session()
        with pytest.raises(SqlSyntaxError):
            session.execute("SELEKT 1")

    def test_autocommit_insert_is_atomic(self):
        from repro.errors import DuplicateKey, TransactionAborted

        session = Database().session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        with pytest.raises((DuplicateKey, TransactionAborted)):
            # multi-row insert with a duplicate: all-or-nothing
            session.execute("INSERT INTO t VALUES (2), (1), (3)")
        rows = session.query("SELECT id FROM t ORDER BY id")
        assert [r["id"] for r in rows] == [1]

    def test_catalog_propagates_across_sessions(self):
        db = Database()
        a = db.session()
        b = db.session()
        a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        b.refresh_catalog()
        assert b.catalog.has_table("t")

    def test_drop_table(self):
        from repro.errors import SchemaError

        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("DROP TABLE t")
        with pytest.raises(SchemaError):
            session.query("SELECT * FROM t")

    def test_create_index_backfills(self):
        db = Database()
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        session.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')")
        session.execute("CREATE INDEX t_v ON t (v)")
        rows = session.query("SELECT id FROM t WHERE v = 'a' ORDER BY id")
        assert [r["id"] for r in rows] == [1, 3]

    def test_table_handle_requires_transaction(self):
        session = Database().session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises(InvalidState):
            session.table("t")


class TestCommitManagerSync:
    def test_sync_commit_managers(self):
        db = Database(commit_managers=2)
        a = db.session()
        b = db.session()
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        b.refresh_catalog()
        a.execute("INSERT INTO t VALUES (1, 1)")
        db.sync_commit_managers()
        assert b.query("SELECT v FROM t WHERE id = 1") == [{"v": 1}]

    def test_lowest_active_version(self):
        db = Database(commit_managers=2)
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        assert db.lowest_active_version() >= 0
