"""Tests for INSERT..SELECT, UNIQUE columns, and executemany."""

import pytest

from repro.api import Database
from repro.errors import DuplicateKey, SqlPlanError, TransactionAborted


@pytest.fixture
def session():
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute("CREATE TABLE src (id INT PRIMARY KEY, v INT, tag TEXT)")
    session.executemany(
        "INSERT INTO src VALUES (?, ?, ?)",
        [(i, i * 10, "hot" if i % 2 == 0 else "cold") for i in range(10)],
    )
    return session


class TestInsertSelect:
    def test_basic_copy(self, session):
        session.execute("CREATE TABLE dst (id INT PRIMARY KEY, v INT, tag TEXT)")
        count = session.execute("INSERT INTO dst SELECT * FROM src").rowcount
        assert count == 10
        assert session.query("SELECT SUM(v) AS s FROM dst") == [{"s": 450}]

    def test_filtered_projection(self, session):
        session.execute("CREATE TABLE hot (id INT PRIMARY KEY, v INT)")
        count = session.execute(
            "INSERT INTO hot (id, v) SELECT id, v FROM src WHERE tag = 'hot'"
        ).rowcount
        assert count == 5

    def test_with_expressions(self, session):
        session.execute("CREATE TABLE doubled (id INT PRIMARY KEY, v INT)")
        session.execute(
            "INSERT INTO doubled (id, v) SELECT id, v * 2 FROM src WHERE id < 3"
        )
        rows = session.query("SELECT v FROM doubled ORDER BY id")
        assert [r["v"] for r in rows] == [0, 20, 40]

    def test_column_count_mismatch(self, session):
        session.execute("CREATE TABLE narrow (id INT PRIMARY KEY)")
        with pytest.raises(SqlPlanError):
            session.execute("INSERT INTO narrow SELECT id, v FROM src")

    def test_atomicity_on_duplicate(self, session):
        session.execute("CREATE TABLE dst (id INT PRIMARY KEY, v INT, tag TEXT)")
        session.execute("INSERT INTO dst VALUES (3, 0, 'x')")
        with pytest.raises((DuplicateKey, TransactionAborted)):
            session.execute("INSERT INTO dst SELECT * FROM src")
        # all-or-nothing: only the pre-existing row remains
        assert session.query("SELECT COUNT(*) AS n FROM dst") == [{"n": 1}]


class TestUniqueColumns:
    def test_unique_column_enforced(self, session):
        session.execute(
            "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE)"
        )
        session.execute("INSERT INTO users VALUES (1, 'a@example.com')")
        with pytest.raises((DuplicateKey, TransactionAborted)):
            session.execute("INSERT INTO users VALUES (2, 'a@example.com')")

    def test_unique_column_creates_index(self, session):
        session.execute(
            "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE)"
        )
        plan = "\n".join(
            session.explain("SELECT * FROM users WHERE email = 'x'")
        )
        assert "users_email_unique" in plan

    def test_unique_allows_distinct_values(self, session):
        session.execute(
            "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE)"
        )
        session.execute(
            "INSERT INTO users VALUES (1, 'a@x'), (2, 'b@x'), (3, NULL)"
        )
        assert session.query("SELECT COUNT(*) AS n FROM users") == [{"n": 3}]


class TestExecutemany:
    def test_atomic_batch(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises((DuplicateKey, TransactionAborted)):
            session.executemany(
                "INSERT INTO t VALUES (?)", [(1,), (2,), (1,)]
            )
        assert session.query("SELECT COUNT(*) AS n FROM t") == [{"n": 0}]

    def test_returns_total_rowcount(self, session):
        count = session.executemany(
            "UPDATE src SET v = v + 1 WHERE id = ?", [(0,), (1,), (99,)]
        )
        assert count == 2

    def test_inside_explicit_transaction(self, session):
        session.execute("BEGIN")
        session.executemany(
            "UPDATE src SET v = 0 WHERE id = ?", [(0,), (1,)]
        )
        session.execute("ROLLBACK")
        assert session.query("SELECT v FROM src WHERE id = 1") == [{"v": 10}]


class TestUniqueKeyAfterDelete:
    """A deleted row's index entry stays while a snapshot can reach the
    row (Section 5.3.2); only a live row makes a unique key a duplicate."""

    @pytest.fixture
    def table(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (1, 1)")
        return session

    def test_reinsert_in_the_deleting_transaction(self, table):
        table.execute("BEGIN")
        table.execute("DELETE FROM t WHERE id = 1")
        table.execute("INSERT INTO t VALUES (1, 2)")
        table.execute("COMMIT")
        assert table.query("SELECT v FROM t WHERE id = 1") == [{"v": 2}]

    def test_reinsert_while_an_older_snapshot_reads(self, db, table):
        reader = db.session()
        reader.execute("BEGIN")
        assert reader.query("SELECT v FROM t WHERE id = 1") == [{"v": 1}]
        table.execute("DELETE FROM t WHERE id = 1")
        table.execute("INSERT INTO t VALUES (1, 2)")
        assert table.query("SELECT v FROM t WHERE id = 1") == [{"v": 2}]
        assert reader.query("SELECT v FROM t WHERE id = 1") == [{"v": 1}]
        reader.execute("COMMIT")

    @pytest.mark.parametrize("key", [5, 1], ids=["new", "deleted"])
    def test_concurrent_inserts_of_one_key_one_commits(self, db, table, key):
        table.execute("DELETE FROM t WHERE id = 1")
        first, second = db.session(), db.session()
        first.execute("BEGIN")
        second.execute("BEGIN")
        first.execute(f"INSERT INTO t VALUES ({key}, 1)")
        second.execute(f"INSERT INTO t VALUES ({key}, 2)")
        first.execute("COMMIT")
        with pytest.raises(TransactionAborted):
            second.execute("COMMIT")
        assert table.query(f"SELECT v FROM t WHERE id = {key}") == [{"v": 1}]
