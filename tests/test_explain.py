"""Tests for EXPLAIN: the planner's access-path choices made visible."""

import pytest

from repro.api import Database
from repro.effects import run_direct
from repro.errors import SqlPlanError
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import Table


@pytest.fixture
def session():
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer INT, "
        "region TEXT, total DECIMAL)"
    )
    session.execute("CREATE INDEX orders_customer ON orders (customer)")
    session.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)"
    )
    return session


def plan_text(session, sql, params=()):
    return "\n".join(session.explain(sql, params))


class TestAccessPaths:
    def test_pk_point_lookup(self, session):
        plan = plan_text(session, "SELECT * FROM orders WHERE id = 5")
        assert "point lookup via orders_pk" in plan

    def test_secondary_index_lookup(self, session):
        plan = plan_text(
            session, "SELECT * FROM orders WHERE customer = 7"
        )
        assert "orders_customer" in plan
        assert "full scan" not in plan

    def test_range_scan(self, session):
        plan = plan_text(
            session, "SELECT * FROM orders WHERE id > 10 AND id < 20"
        )
        assert "range via orders_pk" in plan

    def test_full_scan_with_pushdown(self, session):
        plan = plan_text(
            session, "SELECT * FROM orders WHERE region = 'emea'"
        )
        assert "full scan with storage-side" in plan

    def test_plain_full_scan(self, session):
        plan = plan_text(session, "SELECT * FROM orders")
        assert plan.strip().endswith("full scan")

    def test_parameters_resolved(self, session):
        plan = plan_text(
            session, "SELECT * FROM orders WHERE id = ?", [42]
        )
        assert "42" in plan


class TestJoinsAndShape:
    def test_index_nested_loop(self, session):
        plan = plan_text(
            session,
            "SELECT * FROM orders o JOIN customers c ON c.id = o.customer",
        )
        assert "index nested-loop join via customers_pk" in plan

    def test_hash_join_on_unindexed_column(self, session):
        plan = plan_text(
            session,
            "SELECT * FROM orders a JOIN orders b ON a.region = b.region",
        )
        assert "hash join on region" in plan

    def test_nested_loop_fallback(self, session):
        plan = plan_text(
            session,
            "SELECT * FROM orders a JOIN orders b ON a.total < b.total",
        )
        assert "nested-loop join" in plan

    def test_post_processing_lines(self, session):
        plan = plan_text(
            session,
            "SELECT region, COUNT(*) FROM orders WHERE total > 5 "
            "GROUP BY region ORDER BY region LIMIT 3",
        )
        assert "group by 1 expr(s)" in plan
        assert "sort by 1 key(s)" in plan
        assert "limit 3" in plan

    def test_for_update_marker(self, session):
        plan = plan_text(
            session, "SELECT * FROM orders WHERE id = 1 FOR UPDATE"
        )
        assert "lock rows (FOR UPDATE)" in plan


class TestDmlPlans:
    def test_update_plan(self, session):
        plan = plan_text(session, "UPDATE orders SET total = 0 WHERE id = 1")
        assert plan.startswith("UPDATE orders")
        assert "point lookup" in plan

    def test_delete_plan(self, session):
        plan = plan_text(session, "DELETE FROM orders WHERE customer = 2")
        assert plan.startswith("DELETE orders")
        assert "orders_customer" in plan

    def test_insert_plan(self, session):
        plan = plan_text(session, "INSERT INTO orders VALUES (1, 2, 'x', 3)")
        assert "INSERT 1 row(s)" in plan


class _RecordingTable(Table):
    """A real table handle that logs which access method the executor used."""

    calls = None  # the shared log, set per provider

    def lookup(self, index, key):
        self.calls.append("lookup")
        return (yield from super().lookup(index, key))

    def index_range(self, index, low, high, include_high=False, limit=None):
        self.calls.append("index_range")
        return (yield from super().index_range(index, low, high, include_high, limit))

    def scan(self, pushdown=None):
        self.calls.append("scan" if pushdown is None else "scan+pushdown")
        return (yield from super().scan(pushdown))


# (statement, the access EXPLAIN must name, the Table calls execution must make:
# first the base-table access, then what every join access is).
_PLANNED = [
    ("SELECT * FROM orders WHERE id = 5",
     "point lookup via orders_pk", "lookup", None),
    ("SELECT * FROM orders WHERE id > 1 AND id < 4",
     "range via orders_pk", "index_range", None),
    ("SELECT * FROM orders WHERE region = 'emea'",
     "full scan with storage-side", "scan+pushdown", None),
    ("SELECT * FROM orders",
     ": full scan", "scan", None),
    ("SELECT * FROM orders o JOIN customers c ON c.id = o.customer",
     "index nested-loop join via customers_pk", "scan", "lookup"),
    # no left rows: the inner table is not touched at all
    ("SELECT * FROM orders o JOIN customers c ON c.id = o.customer"
     " WHERE o.id = 99",
     "index nested-loop join via customers_pk", "lookup", None),
    ("SELECT * FROM orders a JOIN orders b ON a.region = b.region",
     "hash join on region", "scan", "scan"),
    ("SELECT * FROM orders a JOIN orders b ON a.total < b.total",
     ": nested-loop join", "scan", "scan"),
    # the ON binds the first of items_pk's two columns: a range per outer row
    ("SELECT * FROM orders o JOIN items i ON i.order_id = o.id",
     "inner join items [i]: index nested-loop join via items_pk prefix (order_id)",
     "scan", "index_range"),
    ("SELECT * FROM orders o LEFT JOIN items i ON i.order_id = o.id AND i.line > 0",
     "left join items [i]: index nested-loop join via items_pk prefix (order_id)",
     "scan", "index_range"),
    ("SELECT * FROM orders o LEFT JOIN items i ON i.qty = o.customer",
     "left join items [i]: hash join on qty", "scan", "scan"),
]


class TestPlanShownIsPlanExecuted:
    @pytest.mark.parametrize("sql, named, base_call, join_call", _PLANNED)
    def test_execution_uses_the_access_explain_names(
            self, session, sql, named, base_call, join_call):
        session.execute("CREATE TABLE items (order_id INT, line INT, qty INT, "
                        "PRIMARY KEY (order_id, line))")
        for i in range(6):
            session.execute("INSERT INTO items VALUES (?, ?, ?)", [i // 2, i % 2, i])
            session.execute(
                "INSERT INTO orders VALUES (?, ?, ?, ?)",
                [i, i % 2, "emea" if i % 2 else "apac", i],
            )
            session.execute("INSERT INTO customers VALUES (?, ?)", [i, "n"])
        assert named in plan_text(session, sql)

        calls = []
        txn = session.begin()

        def provider(name):
            table = _RecordingTable(session.catalog.table(name), txn, session.indexes)
            table.calls = calls
            return table

        run_direct(StatementExecutor(provider).select(parse(sql)), session.dispatcher)
        session.rollback()
        assert calls[0] == base_call
        assert set(calls[1:]) == ({join_call} if join_call else set())


class TestPlanFollowsTheSchema:
    def test_create_index_changes_the_plan_of_a_cached_statement(self, session):
        # ``parse`` hands every execution the same AST; nothing that
        # depends on the schema may stick to it.
        for i in range(6):
            session.execute(
                "INSERT INTO orders VALUES (?, ?, ?, ?)",
                [i, i % 2, "emea" if i % 2 else "apac", i],
            )
        sql = "SELECT id FROM orders WHERE region = 'emea'"

        def executed():
            calls = []
            txn = session.begin()

            def provider(name):
                table = _RecordingTable(
                    session.catalog.table(name), txn, session.indexes
                )
                table.calls = calls
                return table

            result = run_direct(
                StatementExecutor(provider).select(parse(sql))
            , session.dispatcher)
            session.rollback()
            return calls, sorted(result.rows)

        assert "full scan with storage-side" in plan_text(session, sql)
        assert executed() == (["scan+pushdown"], [(1,), (3,), (5,)])
        session.execute("CREATE INDEX orders_region ON orders (region)")
        assert "point lookup via orders_region" in plan_text(session, sql)
        assert executed() == (["lookup"], [(1,), (3,), (5,)])


class TestRejectedAtPlanTime:
    """What is wrong with a statement is wrong before it runs -- for
    ``explain`` exactly as for ``execute``."""

    @pytest.mark.parametrize("where", ["customer = 7", "customer = 8"])
    def test_insert_select_arity_with_and_without_rows(self, session, where):
        # Used to be checked against the first row the SELECT produced: no
        # row, no error.
        session.execute("INSERT INTO orders VALUES (1, 7, 'emea', 3)")
        sql = f"INSERT INTO customers SELECT id, region, total FROM orders WHERE {where}"
        with pytest.raises(SqlPlanError, match="2 columns but 3 values"):
            session.execute(sql)
        with pytest.raises(SqlPlanError, match="2 columns but 3 values"):
            session.explain(sql)
        assert session.query("SELECT COUNT(*) AS n FROM customers") == [{"n": 0}]

    def test_insert_values_arity(self, session):
        sql = "INSERT INTO customers VALUES (1, 'a'), (2, 'b', 'c')"
        with pytest.raises(SqlPlanError, match="2 columns but 3 values"):
            session.execute(sql)
        with pytest.raises(SqlPlanError, match="2 columns but 3 values"):
            session.explain(sql)
        assert session.query("SELECT COUNT(*) AS n FROM customers") == [{"n": 0}]

    @pytest.mark.parametrize("sql", [
        "SELECT region, COUNT(*) FROM orders GROUP BY region FOR UPDATE",
        "SELECT * FROM orders o JOIN customers c ON c.id = o.customer FOR UPDATE",
    ])
    def test_for_update_needs_a_plain_select(self, session, sql):
        with pytest.raises(SqlPlanError, match="plain single-table SELECT"):
            session.execute(sql)
        with pytest.raises(SqlPlanError, match="plain single-table SELECT"):
            session.explain(sql)

    @pytest.mark.parametrize("sql, params", [
        ("SELECT * FROM orders WHERE id = -?", ["one"]),   # used to be a TypeError
        ("SELECT * FROM orders WHERE id = 1 / 0", []),
        ("DELETE FROM orders WHERE id BETWEEN 1 AND -?", ["x"]),
    ])
    def test_a_constant_that_does_not_fold_is_a_plan_error(self, session, sql, params):
        with pytest.raises(SqlPlanError, match="cannot evaluate"):
            session.execute(sql, params)
        with pytest.raises(SqlPlanError, match="cannot evaluate"):
            session.explain(sql, params)

    def test_only_dml_and_queries_have_plans(self, session):
        with pytest.raises(SqlPlanError, match="unsupported statement"):
            session.explain("DROP TABLE orders")
