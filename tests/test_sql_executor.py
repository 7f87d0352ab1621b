"""Tests for SQL execution through the embedded database."""

import sqlite3

import pytest

from repro.api import Database
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import (
    DuplicateKey,
    SchemaError,
    SqlError,
    SqlPlanError,
    TransactionAborted,
)


@pytest.fixture
def session():
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, "
        "dept TEXT, salary DECIMAL, boss INT)"
    )
    session.execute("CREATE INDEX emp_dept ON emp (dept)")
    session.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 'eng', 120, NULL), "
        "(2, 'bob', 'eng', 100, 1), "
        "(3, 'cat', 'sales', 90, 1), "
        "(4, 'dan', 'sales', 80, 3), "
        "(5, 'eve', NULL, 70, 3)"
    )
    return session


class TestSelect:
    def test_projection_and_order(self, session):
        rows = session.query("SELECT name FROM emp ORDER BY salary DESC")
        assert [r["name"] for r in rows] == ["ann", "bob", "cat", "dan", "eve"]

    def test_where_point_lookup(self, session):
        rows = session.query("SELECT name FROM emp WHERE id = 3")
        assert rows == [{"name": "cat"}]

    def test_where_secondary_index(self, session):
        rows = session.query(
            "SELECT name FROM emp WHERE dept = 'eng' ORDER BY id"
        )
        assert [r["name"] for r in rows] == ["ann", "bob"]

    def test_where_range(self, session):
        rows = session.query(
            "SELECT name FROM emp WHERE salary >= 90 AND salary < 120 ORDER BY id"
        )
        assert [r["name"] for r in rows] == ["bob", "cat"]

    def test_where_between_and_in(self, session):
        rows = session.query(
            "SELECT id FROM emp WHERE salary BETWEEN 80 AND 100 "
            "AND dept IN ('eng', 'sales') ORDER BY id"
        )
        assert [r["id"] for r in rows] == [2, 3, 4]

    def test_like(self, session):
        rows = session.query("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY id")
        assert [r["name"] for r in rows] == ["ann", "cat", "dan"]

    def test_null_semantics(self, session):
        rows = session.query("SELECT id FROM emp WHERE dept IS NULL")
        assert rows == [{"id": 5}]
        # NULL comparisons never match
        rows = session.query("SELECT id FROM emp WHERE dept = 'x' OR boss = 99")
        assert rows == []

    def test_expressions(self, session):
        rows = session.query(
            "SELECT name, salary * 2 AS double_pay FROM emp WHERE id = 1"
        )
        assert rows == [{"name": "ann", "double_pay": 240.0}]

    def test_scalar_functions(self, session):
        rows = session.query(
            "SELECT UPPER(name) AS u, ABS(0 - salary) AS a FROM emp WHERE id = 1"
        )
        assert rows == [{"u": "ANN", "a": 120.0}]

    def test_limit(self, session):
        rows = session.query("SELECT id FROM emp ORDER BY id LIMIT 2")
        assert [r["id"] for r in rows] == [1, 2]

    def test_distinct(self, session):
        rows = session.query(
            "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept"
        )
        assert [r["dept"] for r in rows] == ["eng", "sales"]

    def test_select_without_from(self, session):
        rows = session.query("SELECT 1 + 1 AS two")
        assert rows == [{"two": 2}]

    def test_unknown_column_rejected(self, session):
        with pytest.raises(SqlPlanError):
            session.query("SELECT nope FROM emp")

    def test_unknown_table_rejected(self, session):
        with pytest.raises(SchemaError):
            session.query("SELECT * FROM ghost")


class TestAggregation:
    def test_global_aggregates(self, session):
        rows = session.query(
            "SELECT COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS avg, "
            "MIN(salary) AS lo, MAX(salary) AS hi FROM emp"
        )
        assert rows == [{"n": 5, "total": 460.0, "avg": 92.0, "lo": 70.0,
                         "hi": 120.0}]

    def test_count_ignores_nulls(self, session):
        rows = session.query("SELECT COUNT(dept) AS n FROM emp")
        assert rows == [{"n": 4}]

    def test_count_distinct(self, session):
        rows = session.query("SELECT COUNT(DISTINCT dept) AS n FROM emp")
        assert rows == [{"n": 2}]

    def test_group_by(self, session):
        rows = session.query(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp "
            "WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept"
        )
        assert rows == [
            {"dept": "eng", "n": 2, "total": 220.0},
            {"dept": "sales", "n": 2, "total": 170.0},
        ]

    def test_having(self, session):
        rows = session.query(
            "SELECT dept FROM emp WHERE dept IS NOT NULL GROUP BY dept "
            "HAVING SUM(salary) > 200"
        )
        assert rows == [{"dept": "eng"}]

    def test_aggregate_on_empty_input(self, session):
        rows = session.query(
            "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp WHERE id > 100"
        )
        assert rows == [{"n": 0, "s": None}]

    def test_order_by_aggregate(self, session):
        rows = session.query(
            "SELECT dept FROM emp WHERE dept IS NOT NULL GROUP BY dept "
            "ORDER BY SUM(salary) DESC"
        )
        assert [r["dept"] for r in rows] == ["eng", "sales"]


class TestJoins:
    def test_self_join_via_index(self, session):
        rows = session.query(
            "SELECT e.name AS emp, b.name AS boss FROM emp e "
            "JOIN emp b ON b.id = e.boss ORDER BY e.id"
        )
        assert rows == [
            {"emp": "bob", "boss": "ann"},
            {"emp": "cat", "boss": "ann"},
            {"emp": "dan", "boss": "cat"},
            {"emp": "eve", "boss": "cat"},
        ]

    def test_left_join_keeps_unmatched(self, session):
        rows = session.query(
            "SELECT e.name AS emp, b.name AS boss FROM emp e "
            "LEFT JOIN emp b ON b.id = e.boss ORDER BY e.id"
        )
        assert rows[0] == {"emp": "ann", "boss": None}
        assert len(rows) == 5

    def test_join_with_filter(self, session):
        rows = session.query(
            "SELECT e.name FROM emp e JOIN emp b ON b.id = e.boss "
            "WHERE b.dept = 'sales' ORDER BY e.id"
        )
        assert [r["name"] for r in rows] == ["dan", "eve"]

    def test_join_on_non_indexed_equality(self, session):
        # dept = dept: hash join path
        rows = session.query(
            "SELECT COUNT(*) AS n FROM emp a JOIN emp b ON a.dept = b.dept"
        )
        # eng x eng (4) + sales x sales (4); NULL dept never matches
        assert rows == [{"n": 8}]

    def test_three_way_join(self, session):
        rows = session.query(
            "SELECT e.name FROM emp e "
            "JOIN emp b ON b.id = e.boss "
            "JOIN emp g ON g.id = b.boss "
            "ORDER BY e.id"
        )
        assert [r["name"] for r in rows] == ["dan", "eve"]

    @pytest.mark.parametrize("inner_key, strategy", [
        ("k", "index nested-loop join via b_pk"),
        ("w", "hash join on w"),
    ])
    def test_two_equalities_on_one_inner_column(self, inner_key, strategy):
        # The index path used to build a two-part key for the one-column
        # index and find nothing: only the first equality on an inner
        # column can bind it, the second is a residual condition.
        session = Database(storage_nodes=2).session()
        session.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT, y INT)")
        session.execute("CREATE TABLE b (k INT PRIMARY KEY, w INT, v TEXT)")
        for i in range(5):
            session.execute(
                "INSERT INTO a VALUES (?, ?, ?)",
                [i, i, i if i % 2 == 0 else i + 1],
            )
            session.execute("INSERT INTO b VALUES (?, ?, ?)", [i, i, f"v{i}"])
        sql = (
            f"SELECT a.id, b.v FROM a JOIN b ON b.{inner_key} = a.x "
            f"AND b.{inner_key} = a.y ORDER BY a.id"
        )
        assert strategy in "\n".join(session.explain(sql))
        assert session.execute(sql).rows == [(0, "v0"), (2, "v2"), (4, "v4")]

    def test_left_equi_join_without_an_index_is_hashed(self):
        # Used to plan "nested-loop join": a scan, then the whole ON for
        # every (left, inner) pair.  Brute force is the oracle; both sides
        # carry NULL keys, which pad (left) or are dropped (inner).
        session = Database(storage_nodes=2).session()
        session.execute("CREATE TABLE o (id INT PRIMARY KEY, b INT, c INT)")
        session.execute("CREATE TABLE p (k INT PRIMARY KEY, b INT, c INT)")
        values = [None, 0, 1]
        o_rows = [(i, values[i % 3], values[i // 3 % 3]) for i in range(9)]
        o_rows.append((9, 2, 2))  # no NULL, and no match either
        p_rows = [(k, values[k % 3], values[k // 3 % 3]) for k in range(18)]
        for row in o_rows:
            session.execute("INSERT INTO o VALUES (?, ?, ?)", row)
        for row in p_rows:
            session.execute("INSERT INTO p VALUES (?, ?, ?)", row)
        sql = ("SELECT o.id, p.k FROM o LEFT JOIN p ON p.b = o.b AND p.c = o.c "
               "ORDER BY o.id, p.k")
        assert "left join p [p]: hash join on b, c" in "\n".join(session.explain(sql))
        expected = []
        for i, b, c in o_rows:
            matches = [(i, k) for k, pb, pc in p_rows
                       if None not in (b, c) and (pb, pc) == (b, c)]
            expected += matches or [(i, None)]
        assert session.execute(sql).rows == expected
        assert sum(k is None for _i, k in expected) == 6  # five of them NULL-keyed


class TestDml:
    def test_update_with_expression(self, session):
        count = session.execute(
            "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'"
        ).rowcount
        assert count == 2
        rows = session.query("SELECT SUM(salary) AS s FROM emp")
        assert rows == [{"s": 480.0}]

    def test_update_via_pk(self, session):
        session.execute("UPDATE emp SET name = 'anna' WHERE id = 1")
        assert session.query("SELECT name FROM emp WHERE id = 1") == [
            {"name": "anna"}
        ]

    def test_delete(self, session):
        session.execute("DELETE FROM emp WHERE salary < 90")
        rows = session.query("SELECT COUNT(*) AS n FROM emp")
        assert rows == [{"n": 3}]

    def test_insert_with_defaults_and_nulls(self, session):
        session.execute("INSERT INTO emp (id, name) VALUES (10, 'zoe')")
        rows = session.query("SELECT dept, salary FROM emp WHERE id = 10")
        assert rows == [{"dept": None, "salary": None}]

    def test_not_null_enforced(self, session):
        with pytest.raises(SchemaError):
            session.execute("INSERT INTO emp (id) VALUES (11)")

    def test_duplicate_pk_rejected(self, session):
        with pytest.raises(DuplicateKey):
            session.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_pk_update_finds_row_under_new_key(self, session):
        session.execute("UPDATE emp SET id = 100 WHERE id = 5")
        assert session.query("SELECT name FROM emp WHERE id = 100") == [
            {"name": "eve"}
        ]
        assert session.query("SELECT name FROM emp WHERE id = 5") == []

    def test_parameterized_statements(self, session):
        session.execute(
            "INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
            [20, "pam", "eng", 95.0, None],
        )
        rows = session.query("SELECT name FROM emp WHERE id = ?", [20])
        assert rows == [{"name": "pam"}]

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM emp WHERE salary + 0 = ?",  # evaluated per row
        "SELECT name FROM emp WHERE id = ?",          # index-analyzed
        "SELECT name FROM emp WHERE id BETWEEN 1 AND ?",
    ])
    def test_unbound_parameter_is_a_plan_error(self, session, sql):
        with pytest.raises(SqlPlanError, match="only 0 values were bound"):
            session.query(sql, [])


class TestTransactions:
    def test_explicit_commit(self, session):
        session.execute("BEGIN")
        session.execute("UPDATE emp SET salary = 0 WHERE id = 1")
        session.execute("COMMIT")
        assert session.query("SELECT salary FROM emp WHERE id = 1") == [
            {"salary": 0.0}
        ]

    def test_insert_delete_insert_of_one_key_commits(self, session):
        # The deleted row's queued index inserts used to stay behind and
        # collide with the re-insert's at commit (spurious DuplicateKey).
        session.execute("BEGIN")
        session.execute("INSERT INTO emp VALUES (9, 'old', 'eng', 1, NULL)")
        session.execute("DELETE FROM emp WHERE id = 9")
        session.execute("INSERT INTO emp VALUES (9, 'new', 'eng', 2, NULL)")
        session.execute("COMMIT")
        assert session.query("SELECT name FROM emp WHERE id = 9") == [
            {"name": "new"}
        ]
        assert session.query(
            "SELECT name FROM emp WHERE dept = 'eng' AND salary < 10"
        ) == [{"name": "new"}]

    def test_insert_then_delete_commits_nothing(self, session):
        from repro.core.txlog import TransactionLog
        from repro.sql.keyenc import encode_key

        session.execute("BEGIN")
        session.execute("INSERT INTO emp VALUES (9, 'gone', 'eng', 1, NULL)")
        session.execute("DELETE FROM emp WHERE id = 9")
        txn = session._txn
        session.execute("COMMIT")
        # The read-only fast path: no log entry, no dangling index entry.
        assert run_direct(TransactionLog().get(txn.tid), session.dispatcher) is None
        primary = session.catalog.table("emp").primary_index
        tree = session.indexes.tree(primary)
        assert run_direct(tree.lookup(encode_key((9,))), session.dispatcher) == []

    def test_rollback_reverts(self, session):
        session.execute("BEGIN")
        session.execute("DELETE FROM emp")
        assert session.query("SELECT COUNT(*) AS n FROM emp") == [{"n": 0}]
        session.execute("ROLLBACK")
        assert session.query("SELECT COUNT(*) AS n FROM emp") == [{"n": 5}]

    def test_conflicting_sessions(self, session):
        db_session_b = Database.__new__(Database)  # placeholder, not used
        # Two sessions on the same database conflict on the same row.
        other = _second_session(session)
        session.execute("BEGIN")
        other.execute("BEGIN")
        session.execute("UPDATE emp SET salary = 1 WHERE id = 2")
        other.execute("UPDATE emp SET salary = 2 WHERE id = 2")
        session.execute("COMMIT")
        with pytest.raises(TransactionAborted):
            other.execute("COMMIT")

    def test_snapshot_reads_inside_transaction(self, session):
        other = _second_session(session)
        session.execute("BEGIN")
        session.query("SELECT salary FROM emp WHERE id = 1")
        other.execute("UPDATE emp SET salary = 555 WHERE id = 1")
        rows = session.query("SELECT salary FROM emp WHERE id = 1")
        assert rows == [{"salary": 120.0}]  # snapshot unchanged
        session.execute("COMMIT")
        rows = session.query("SELECT salary FROM emp WHERE id = 1")
        assert rows == [{"salary": 555.0}]


class TestDivisionByZero:
    @pytest.fixture
    def ratios(self, session):
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
        session.execute(
            "INSERT INTO t VALUES (1, 6, 2), (2, NULL, 0), (3, 5, 0), (4, 0, 3)"
        )
        return session

    @pytest.mark.parametrize("sql", [
        "SELECT a / b AS r FROM t WHERE id = 3",  # projection
        "SELECT id FROM t WHERE a / b > 1",       # WHERE
        "SELECT id FROM t ORDER BY a / a",        # ORDER BY
    ])
    def test_raises_sql_error_and_the_transaction_still_commits(
            self, ratios, sql):
        ratios.execute("BEGIN")
        ratios.execute("UPDATE t SET a = 7 WHERE id = 1")
        with pytest.raises(SqlError, match="division by zero"):
            ratios.query(sql)
        ratios.execute("COMMIT")
        assert ratios.query("SELECT a FROM t WHERE id = 1") == [{"a": 7}]
        # NULL still wins over the zero divisor
        assert ratios.query("SELECT a / b AS r FROM t WHERE id = 2") == [
            {"r": None}
        ]


class TestIntegerDivision:
    """INT / INT truncates toward zero, as in PostgreSQL and sqlite3;
    any other operand pair divides exactly, and NULL still wins."""

    @pytest.mark.parametrize("expr, expected", [
        ("7 / 2", 3),
        ("-7 / 2", -3),
        ("7 / -2", -3),
        ("6 / 3", 2),
        ("7.0 / 2", 3.5),
        ("7 / 2.0", 3.5),
        ("NULL / 2", None),
    ])
    def test_matches_sqlite3(self, session, expr, expected):
        (row,) = session.query(f"SELECT {expr} AS r")
        reference = sqlite3.connect(":memory:").execute(
            f"SELECT {expr}").fetchone()[0]
        assert row["r"] == expected == reference
        assert type(row["r"]) is type(expected) is type(reference)


class TestTypeMismatch:
    """Operands Python cannot combine raise an SqlError, never a builtin
    TypeError -- from a storage node's push-down filter least of all."""

    @pytest.fixture
    def named(self, session):
        session.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10), v INT)"
        )
        session.execute("INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2)")
        return session

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM t WHERE name > 5",   # text column vs a constant
        "SELECT id FROM t WHERE name > v",   # text column vs an int column
        "SELECT name + 1 AS x FROM t",       # arithmetic on text
        "SELECT SUM(name) AS s FROM t",      # aggregate over text
    ])
    def test_raises_sql_error_and_the_transaction_still_commits(
            self, named, sql):
        named.execute("BEGIN")
        named.execute("UPDATE t SET v = 7 WHERE id = 1")
        with pytest.raises(SqlError, match="name|str"):
            named.query(sql)
        named.execute("COMMIT")
        assert named.query("SELECT v FROM t WHERE id = 1") == [{"v": 7}]

    def test_ordering_mismatch_is_rejected_before_any_scan(self, named):
        with pytest.raises(SqlPlanError, match="TEXT column 'name'"):
            named.explain("SELECT id FROM t WHERE name > ?", [5])

    def test_equality_across_types_matches_nothing(self, named):
        assert named.query("SELECT id FROM t WHERE name = 5") == []
        assert named.query("SELECT id FROM t WHERE name != 5 ORDER BY id") \
            == [{"id": 1}, {"id": 2}]


class TestSharedCatalog:
    """A session caches the catalog; every transaction revalidates it."""

    def test_index_created_by_another_session_is_maintained(self, session):
        other = _second_session(session)
        other.query("SELECT id FROM emp WHERE id = 1")  # caches the catalog
        session.execute("CREATE INDEX emp_name ON emp (name)")
        # Used to insert without an emp_name entry: the indexed read below
        # then silently missed the row a scan still found.
        other.execute("INSERT INTO emp VALUES (10, 'zoe', 'eng', 95, NULL)")
        sql = "SELECT id FROM emp WHERE name = 'zoe'"
        assert "point lookup via emp_name" in "\n".join(session.explain(sql))
        assert session.execute(sql).rows == [(10,)]
        assert other.execute(sql).rows == [(10,)]
        assert "point lookup via emp_name" in "\n".join(other.explain(sql))

    def test_table_created_by_another_session_is_visible(self, session):
        other = _second_session(session)
        other.query("SELECT id FROM emp WHERE id = 1")
        session.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        other.execute("INSERT INTO notes VALUES (1, 'hello')")
        assert session.execute("SELECT body FROM notes").rows == [("hello",)]

    def test_an_open_transaction_keeps_the_catalog_it_began_with(self, session):
        other = _second_session(session)
        other.execute("BEGIN")
        session.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        with pytest.raises(SchemaError):
            other.execute("INSERT INTO notes VALUES (1, 'hello')")
        other.execute("ROLLBACK")
        other.execute("INSERT INTO notes VALUES (1, 'hello')")

    def test_failed_ddl_leaves_no_definition_behind(self, session):
        with pytest.raises(SchemaError):
            session.execute("CREATE INDEX emp_bad ON emp (nope)")
        with pytest.raises(SchemaError):
            session.execute("CREATE INDEX emp_dept ON emp (dept)")
        assert [index.name for index in session.catalog.table("emp").indexes] == [
            "emp_pk", "emp_dept",
        ]


def _second_session(session):
    """Another session against the same database (shares the cluster)."""
    from repro.sql.session import Session
    from repro.sql.table import IndexManager
    from repro.core.processing_node import ProcessingNode

    cluster = session.dispatcher.cluster
    cm = session.dispatcher.commit_manager
    pn = ProcessingNode(77)
    return Session(pn, Dispatcher(cluster, cm, pn_id=77), IndexManager())
