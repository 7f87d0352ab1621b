"""Additional SQL surface coverage: composite keys, functions, plans."""

import pytest

from repro.api import Database
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse


@pytest.fixture
def session():
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute(
        "CREATE TABLE readings ("
        "  station INT, day INT, metric TEXT, value DECIMAL,"
        "  PRIMARY KEY (station, day, metric)"
        ")"
    )
    rows = []
    for station in (1, 2):
        for day in range(1, 6):
            for metric in ("temp", "rain"):
                value = station * 100 + day + (0.5 if metric == "rain" else 0)
                rows.append(f"({station}, {day}, '{metric}', {value})")
    session.execute("INSERT INTO readings VALUES " + ", ".join(rows))
    return session


class TestCompositeKeys:
    def test_full_key_lookup(self, session):
        rows = session.query(
            "SELECT value FROM readings "
            "WHERE station = 2 AND day = 3 AND metric = 'temp'"
        )
        assert rows == [{"value": 203.0}]

    def test_prefix_range_scan(self, session):
        rows = session.query(
            "SELECT day, metric FROM readings WHERE station = 1 AND day = 2 "
            "ORDER BY metric"
        )
        assert [r["metric"] for r in rows] == ["rain", "temp"]

    def test_prefix_plus_range(self, session):
        rows = session.query(
            "SELECT COUNT(*) AS n FROM readings "
            "WHERE station = 1 AND day >= 2 AND day <= 4"
        )
        assert rows == [{"n": 6}]

    def test_composite_pk_uniqueness(self, session):
        from repro.errors import DuplicateKey, TransactionAborted

        with pytest.raises((DuplicateKey, TransactionAborted)):
            session.execute(
                "INSERT INTO readings VALUES (1, 1, 'temp', 0)"
            )

    def test_update_by_composite_key(self, session):
        session.execute(
            "UPDATE readings SET value = 0 "
            "WHERE station = 1 AND day = 1 AND metric = 'rain'"
        )
        rows = session.query(
            "SELECT value FROM readings "
            "WHERE station = 1 AND day = 1 AND metric = 'rain'"
        )
        assert rows == [{"value": 0.0}]


class TestExpressionsAndFunctions:
    def test_coalesce_and_round(self, session):
        rows = session.query(
            "SELECT COALESCE(NULL, NULL, 7) AS c, ROUND(3.14159, 2) AS r"
        )
        assert rows == [{"c": 7, "r": 3.14}]

    def test_substr_and_length(self, session):
        rows = session.query(
            "SELECT SUBSTR('hello world', 7) AS tail, LENGTH('abc') AS n"
        )
        assert rows == [{"tail": "world", "n": 3}]

    def test_arithmetic_with_nulls(self, session):
        rows = session.query("SELECT 1 + NULL AS x, NULL / 2 AS y")
        assert rows == [{"x": None, "y": None}]

    def test_not_and_boolean_literals(self, session):
        rows = session.query("SELECT NOT TRUE AS f, NOT FALSE AS t")
        assert rows == [{"f": False, "t": True}]

    def test_in_with_params(self, session):
        rows = session.query(
            "SELECT COUNT(*) AS n FROM readings "
            "WHERE station = ? AND metric IN (?, ?)",
            [1, "temp", "fog"],
        )
        assert rows == [{"n": 5}]

    def test_order_by_alias_and_expression(self, session):
        rows = session.query(
            "SELECT station, SUM(value) AS total FROM readings "
            "GROUP BY station ORDER BY total DESC"
        )
        assert [r["station"] for r in rows] == [2, 1]

    def test_group_by_expression(self, session):
        rows = session.query(
            "SELECT day / 3 AS bucket, COUNT(*) AS n FROM readings "
            "WHERE station = 1 GROUP BY day / 3 ORDER BY bucket"
        )
        assert rows == [{"bucket": 0, "n": 4}, {"bucket": 1, "n": 6}]


class TestParsingExtras:
    def test_for_update_parses(self):
        stmt = parse("SELECT * FROM t WHERE id = 1 FOR UPDATE")
        assert isinstance(stmt, ast.Select) and stmt.for_update

    def test_for_update_default_false(self):
        assert parse("SELECT * FROM t").for_update is False

    def test_multiline_statement(self):
        stmt = parse(
            """
            SELECT a,       -- projection
                   b
            FROM t
            WHERE a > 1     -- filter
            """
        )
        assert isinstance(stmt, ast.Select)


class TestResultSet:
    def test_scalar_and_iteration(self, session):
        result = session.execute("SELECT COUNT(*) AS n FROM readings")
        assert result.scalar() == 20
        assert list(result) == [(20,)]
        assert len(result) == 1

    def test_rowcount_for_dml(self, session):
        result = session.execute(
            "UPDATE readings SET value = value + 1 WHERE station = 1"
        )
        assert result.rowcount == 10
