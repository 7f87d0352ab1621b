"""The plan as data: golden trees, and the paths the planner must not move.

Beside ``test_sql_golden.py`` (rows and requests of the ``sql_mixed``
statements) this pins their *plans*: ``str(plan(...))`` for the six
statement classes plus one tree per node type.  ``PARENT_PATHS`` is the
access kind, index, bounds and join strategy the executor chose for every
statement of ``test_explain.py``, ``test_sql_golden.py`` and the
``test_sql_model.py`` generator at the commit before planning moved into
``repro.sql.plan`` (recorded there through ``_access_path`` /
``_join_plan``): folding the WHERE and ON analyses into one must not move
any of them, except for the widenings listed, each with its reason, in
``WIDENED``.
"""

import pytest

from repro.api import Database
from repro.sql import plan as nodes
from repro.sql.expr import Compiler, Layout
from repro.sql.parser import parse
from repro.sql.plan import plan
from repro.sql.table import Table
from repro.workloads.tpcc.schema import build_tpcc_catalog
from tests.test_sql_golden import PARAMS, STATEMENTS

EXPLAIN_DDL = [
    "CREATE TABLE orders (id INT PRIMARY KEY, customer INT, "
    "region TEXT, total DECIMAL)",
    "CREATE INDEX orders_customer ON orders (customer)",
    "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)",
]
MODEL_DDL = [
    "CREATE TABLE t (id INT PRIMARY KEY, v INT, color TEXT)",
    "CREATE INDEX t_color ON t (color)",
    "CREATE TABLE u (k INT PRIMARY KEY, ref INT, color TEXT)",
]


def _catalog_of(ddl):
    session = Database(storage_nodes=2).session()
    for text in ddl:
        session.execute(text)
    return session.catalog


@pytest.fixture(scope="module")
def catalogs():
    return {
        "explain": _catalog_of(EXPLAIN_DDL),
        "explain+region": _catalog_of(
            EXPLAIN_DDL + ["CREATE INDEX orders_region ON orders (region)"]
        ),
        "model": _catalog_of(MODEL_DDL),
        "tpcc": build_tpcc_catalog(),
    }


def plan_of(catalog, sql, params=()):
    """Planning needs the catalog only: the handles carry no transaction."""
    return plan(parse(sql), lambda name: Table(catalog.table(name), None, None),
                params)


# ---------------------------------------------------------------------------
# Golden trees
# ---------------------------------------------------------------------------

GOLDEN_SQL_MIXED = {
    "point": """\
project c_first, c_last, c_balance
  scan customer [customer]: point lookup via customer_pk key=(2, 3, 7)""",
    "byname": """\
project c_id, c_first, c_balance
  sort by 1 key(s)
    scan customer [customer]: point lookup via customer_name key=(1, 2, 'BARBARPRES')""",
    "range_agg": """\
project sum(ol_amount), count(*)
  aggregate sum(Col(ol_amount)), count(*)
    scan orderline [orderline]: range via orderline_pk (1, 2, 3) .. < (1, 2, 13)""",
    "update": """\
UPDATE customer: set c_balance, c_payment_cnt
  scan customer [customer]: point lookup via customer_pk key=(2, 3, 7)""",
    "join": """\
project o_id, ol_number, ol_amount
  inner join orderline [ol]: index nested-loop join via orderline_pk prefix (ol_w_id, ol_d_id, ol_o_id)
    scan orders [o]: point lookup via orders_pk key=(1, 2, 11)""",
    "analytic": """\
project count(*)
  aggregate count(*)
    filter: (Col(ol_amount) >= Literal(9000.0))
      scan orderline [orderline]: range via orderline_pk (1,) .. <= (1,)""",
}

#: One tree per node type the six above leave out (and both shapes of the
#: nodes that have two), over the ``test_explain.py`` schema.
GOLDEN_NODES = [
    ("SELECT 1 + 1 AS two", """\
project two
  one empty row"""),
    ("SELECT DISTINCT region FROM orders LIMIT 2", """\
limit 2
  project distinct region
    scan orders [orders]: full scan"""),
    ("SELECT * FROM orders WHERE id = 1 FOR UPDATE", """\
project id, customer, region, total
  lock rows (FOR UPDATE)
    scan orders [orders]: point lookup via orders_pk key=(1,)"""),
    ("SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
     "ON c.id = o.customer AND c.name != 'x'", """\
project id, name
  left join customers [c]: index nested-loop join via customers_pk
    scan orders [o]: full scan"""),
    ("SELECT * FROM orders a JOIN orders b ON a.total < b.total", """\
project id, customer, region, total, id, customer, region, total
  inner join orders [b]: nested-loop join
    scan orders [a]: full scan"""),
    # No index leads with region: the one shape left that hashes.
    ("SELECT a.id, b.id FROM orders a LEFT JOIN orders b "
     "ON b.region = a.region AND b.total > a.total", """\
project id, id
  left join orders [b]: hash join on region
    scan orders [a]: full scan"""),
    ("SELECT region, COUNT(*) FROM orders WHERE total > 5 GROUP BY region "
     "HAVING COUNT(*) > 1 ORDER BY region LIMIT 3", """\
limit 3
  project region, count(*)
    sort by 1 key(s)
      filter: (count(*) > Literal(1))
        group by 1 expr(s): aggregate count(*)
          filter: (Col(total) > Literal(5))
            scan orders [orders]: full scan with storage-side ScanFilter(col3 > 5)"""),
    ("INSERT INTO customers VALUES (1, 'a'), (2, 'b')", """\
INSERT 2 row(s) into customers"""),
    ("INSERT INTO customers SELECT id, region FROM orders WHERE customer = 7", """\
INSERT into customers from
  project id, region
    scan orders [orders]: point lookup via orders_customer key=(7,)"""),
    ("DELETE FROM orders WHERE id BETWEEN 3 AND ?", """\
DELETE orders
  scan orders [orders]: range via orders_pk (3,) .. <= (9,)"""),
]


@pytest.mark.parametrize("name", sorted(GOLDEN_SQL_MIXED))
def test_sql_mixed_plan_is_golden(catalogs, name):
    tree = plan_of(catalogs["tpcc"], STATEMENTS[name], PARAMS[name])
    assert str(tree) == GOLDEN_SQL_MIXED[name]


@pytest.mark.parametrize("sql, golden", GOLDEN_NODES)
def test_node_type_plan_is_golden(catalogs, sql, golden):
    assert str(plan_of(catalogs["explain"], sql, [9])) == golden


def test_golden_cases_cover_every_node_type(catalogs):
    seen = set()
    trees = [
        plan_of(catalogs["tpcc"], STATEMENTS[name], PARAMS[name])
        for name in GOLDEN_SQL_MIXED
    ] + [plan_of(catalogs["explain"], sql, [9]) for sql, _golden in GOLDEN_NODES]
    for node in trees:
        while node is not None:
            seen.add(type(node))
            node = node.source
    every = {
        value for value in vars(nodes).values()
        if isinstance(value, type) and issubclass(value, nodes.Node)
    } - {nodes.Node}
    assert seen == every


def test_nodes_are_frozen(catalogs):
    tree = plan_of(catalogs["explain"], "SELECT * FROM orders LIMIT 1")
    with pytest.raises(AttributeError, match="frozen"):
        tree.count = 2


# ---------------------------------------------------------------------------
# The paths the parent commit chose
# ---------------------------------------------------------------------------

#: (schema, sql, params)
CORPUS = [
    # tests/test_explain.py
    ("explain", "SELECT * FROM orders WHERE id = 5", ()),
    ("explain", "SELECT * FROM orders WHERE customer = 7", ()),
    ("explain", "SELECT * FROM orders WHERE id > 10 AND id < 20", ()),
    ("explain", "SELECT * FROM orders WHERE region = 'emea'", ()),
    ("explain", "SELECT * FROM orders", ()),
    ("explain", "SELECT * FROM orders WHERE id = ?", (42,)),
    ("explain", "SELECT * FROM orders o JOIN customers c ON c.id = o.customer", ()),
    ("explain", "SELECT * FROM orders a JOIN orders b ON a.region = b.region", ()),
    ("explain", "SELECT * FROM orders a JOIN orders b ON a.total < b.total", ()),
    ("explain", "SELECT region, COUNT(*) FROM orders WHERE total > 5 "
                "GROUP BY region ORDER BY region LIMIT 3", ()),
    ("explain", "SELECT * FROM orders WHERE id = 1 FOR UPDATE", ()),
    ("explain", "UPDATE orders SET total = 0 WHERE id = 1", ()),
    ("explain", "DELETE FROM orders WHERE customer = 2", ()),
    ("explain", "INSERT INTO orders VALUES (1, 2, 'x', 3)", ()),
    ("explain", "SELECT * FROM orders WHERE id > 1 AND id < 4", ()),
    ("explain", "SELECT * FROM orders o JOIN customers c ON c.id = o.customer"
                " WHERE o.id = 99", ()),
    ("explain", "SELECT id FROM orders WHERE region = 'emea'", ()),
    ("explain+region", "SELECT id FROM orders WHERE region = 'emea'", ()),
    # tests/test_sql_golden.py
    ("tpcc", STATEMENTS["point"], (2, 3, 7)),
    ("tpcc", STATEMENTS["byname"], (1, 2, "BARBARPRES")),
    ("tpcc", STATEMENTS["range_agg"], (1, 2, 3, 13)),
    ("tpcc", STATEMENTS["update"], (1.5, 2, 3, 7)),
    ("tpcc", STATEMENTS["join"], (1, 2, 11)),
    ("tpcc", STATEMENTS["analytic"], (1,)),
    ("tpcc", STATEMENTS["lines"], (1, 2, 11)),
    ("tpcc", "INSERT INTO orderline VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
     (1, 2, 11, 0, 5, 1, 0.0, 5, 9500.5, "inserted-first")),
    ("tpcc", "UPDATE orderline SET ol_amount = ? WHERE ol_w_id = ? AND ol_d_id = ? "
             "AND ol_o_id = ? AND ol_number = ?", (9100.25, 1, 2, 11, 3)),
    ("tpcc", "DELETE FROM orderline WHERE ol_w_id = ? AND ol_d_id = ? "
             "AND ol_o_id = ? AND ol_number = ?", (1, 2, 11, 2)),
    # tests/test_sql_model.py
    ("model", "INSERT INTO t VALUES (?, ?, ?)", (3, 4, "red")),
    ("model", "UPDATE t SET v = ?, color = ? WHERE id = ?", (4, "red", 3)),
    ("model", "DELETE FROM t WHERE id = ?", (3,)),
    ("model", "SELECT id, v, color FROM t ORDER BY id", ()),
    ("model", "SELECT v FROM t WHERE id = ?", (7,)),
    ("model", "SELECT id FROM t WHERE color = ? ORDER BY id", ("red",)),
    ("model", "SELECT id FROM t WHERE id >= 10 AND id < 20 ORDER BY id", ()),
    ("model", "SELECT COUNT(*) AS n, SUM(v) AS s FROM t", ()),
    ("model", "SELECT COUNT(*) AS n FROM t WHERE color IS NULL", ()),
    ("model", "INSERT INTO u VALUES (?, ?, ?)", (0, 1, "red")),
    ("model", "SELECT u.k, t.v FROM u JOIN t ON t.id = u.ref ORDER BY u.k", ()),
    ("model", "SELECT t.id, u.k FROM t JOIN u ON u.ref = t.id ORDER BY t.id, u.k", ()),
    ("model", "SELECT u.k, t.id FROM u LEFT JOIN t ON t.id = u.ref ORDER BY u.k", ()),
    ("model", "SELECT t.id, COUNT(u.k) AS n FROM t LEFT JOIN u ON u.ref = t.id "
              "GROUP BY t.id ORDER BY t.id", ()),
    ("model", "SELECT t.id, u.k FROM t JOIN u ON u.color = t.color "
              "ORDER BY t.id, u.k", ()),
    ("model", "SELECT t.id, u.k FROM u JOIN t ON t.color = u.color "
              "ORDER BY t.id, u.k", ()),
    # the first widening (in no test file's statements)
    ("explain", "SELECT * FROM orders WHERE id = 1 + 1", ()),
]

#: Per statement, in FROM order: a base table as ``(table, kind, index, low,
#: high, include_high, pushdown)``, a joined one as ``(table, strategy, index,
#: key columns)``.  The key columns are those matched against the outer row
#: (the parent's loop strategy also listed equalities it then did not use);
#: ``prefix`` is the index strategy the parent did not have, probing through
#: fewer columns than the index has.
PARENT_PATHS = [
    [('orders', 'lookup', 'orders_pk', (5,), None, False, None)],
    [('orders', 'lookup', 'orders_customer', (7,), None, False, None)],
    [('orders', 'range', 'orders_pk', (10,), (20,), False, None)],
    [('orders', 'scan', None, None, None, False, "ScanFilter(col2 = 'emea')")],
    [('orders', 'scan', None, None, None, False, None)],
    [('orders', 'lookup', 'orders_pk', (42,), None, False, None)],
    [('orders', 'scan', None, None, None, False, None),
     ('customers', 'index', 'customers_pk', ('id',))],
    [('orders', 'scan', None, None, None, False, None),
     ('orders', 'hash', None, ('region',))],
    [('orders', 'scan', None, None, None, False, None),
     ('orders', 'loop', None, ())],
    [('orders', 'scan', None, None, None, False, 'ScanFilter(col3 > 5)')],
    [('orders', 'lookup', 'orders_pk', (1,), None, False, None)],
    [('orders', 'lookup', 'orders_pk', (1,), None, False, None)],
    [('orders', 'lookup', 'orders_customer', (2,), None, False, None)],
    [],
    [('orders', 'range', 'orders_pk', (1,), (4,), False, None)],
    [('orders', 'lookup', 'orders_pk', (99,), None, False, None),
     ('customers', 'index', 'customers_pk', ('id',))],
    [('orders', 'scan', None, None, None, False, "ScanFilter(col2 = 'emea')")],
    [('orders', 'lookup', 'orders_region', ('emea',), None, False, None)],
    [('customer', 'lookup', 'customer_pk', (2, 3, 7), None, False, None)],
    [('customer', 'lookup', 'customer_name', (1, 2, 'BARBARPRES'), None, False, None)],
    [('orderline', 'range', 'orderline_pk', (1, 2, 3), (1, 2, 13), False, None)],
    [('customer', 'lookup', 'customer_pk', (2, 3, 7), None, False, None)],
    [('orders', 'lookup', 'orders_pk', (1, 2, 11), None, False, None),
     ('orderline', 'hash', None, ('ol_w_id', 'ol_d_id', 'ol_o_id'))],
    [('orderline', 'range', 'orderline_pk', (1,), (1,), True, None)],
    [('orderline', 'range', 'orderline_pk', (1, 2, 11), (1, 2, 11), True, None)],
    [],
    [('orderline', 'lookup', 'orderline_pk', (1, 2, 11, 3), None, False, None)],
    [('orderline', 'lookup', 'orderline_pk', (1, 2, 11, 2), None, False, None)],
    [],
    [('t', 'lookup', 't_pk', (3,), None, False, None)],
    [('t', 'lookup', 't_pk', (3,), None, False, None)],
    [('t', 'scan', None, None, None, False, None)],
    [('t', 'lookup', 't_pk', (7,), None, False, None)],
    [('t', 'lookup', 't_color', ('red',), None, False, None)],
    [('t', 'range', 't_pk', (10,), (20,), False, None)],
    [('t', 'scan', None, None, None, False, None)],
    [('t', 'scan', None, None, None, False, None)],
    [],
    [('u', 'scan', None, None, None, False, None), ('t', 'index', 't_pk', ('id',))],
    [('t', 'scan', None, None, None, False, None), ('u', 'hash', None, ('ref',))],
    [('u', 'scan', None, None, None, False, None), ('t', 'index', 't_pk', ('id',))],
    [('t', 'scan', None, None, None, False, None), ('u', 'loop', None, ())],
    [('t', 'scan', None, None, None, False, None), ('u', 'hash', None, ('color',))],
    [('u', 'scan', None, None, None, False, None),
     ('t', 'index', 't_color', ('color',))],
    [('orders', 'scan', None, None, None, False, None)],
]

#: sql -> (the parent's paths, the paths now), the intended widenings:
#: - the parent only took bare literals, parameters and their negation for
#:   constants; an expression over them now folds, so it can reach an index;
#: - a join whose equalities bind a leading *prefix* of an index probes it
#:   (the ``sql_mixed`` join: three of ``orderline_pk``'s four columns)
#:   where the parent hashed an unfiltered scan;
#: - a LEFT equi-join no index serves is hashed like an inner one, where
#:   the parent re-evaluated the ON for every pair of rows.
WIDENED = {
    "SELECT * FROM orders WHERE id = 1 + 1": (
        [('orders', 'scan', None, None, None, False, None)],
        [('orders', 'lookup', 'orders_pk', (2,), None, False, None)],
    ),
    STATEMENTS["join"]: (
        [('orders', 'lookup', 'orders_pk', (1, 2, 11), None, False, None),
         ('orderline', 'hash', None, ('ol_w_id', 'ol_d_id', 'ol_o_id'))],
        [('orders', 'lookup', 'orders_pk', (1, 2, 11), None, False, None),
         ('orderline', 'prefix', 'orderline_pk', ('ol_w_id', 'ol_d_id', 'ol_o_id'))],
    ),
    "SELECT t.id, COUNT(u.k) AS n FROM t LEFT JOIN u ON u.ref = t.id "
    "GROUP BY t.id ORDER BY t.id": (
        [('t', 'scan', None, None, None, False, None), ('u', 'loop', None, ())],
        [('t', 'scan', None, None, None, False, None), ('u', 'hash', None, ('ref',))],
    ),
}


def paths_of(root):
    """The access decisions of a plan, shaped like ``PARENT_PATHS``."""
    found = []
    node = root
    while node is not None:
        name = getattr(getattr(node, "table", None), "schema", None)
        name = name.name if name is not None else None
        if isinstance(node, nodes.PointGet):
            found.append((name, "lookup", node.index.name, node.key, None, False, None))
        elif isinstance(node, nodes.IndexRange):
            found.append((name, "range", node.index.name, node.low, node.high,
                          node.include_high, None))
        elif isinstance(node, nodes.Scan):
            pushed = repr(node.pushdown) if node.pushdown is not None else None
            found.append((name, "scan", None, None, None, False, pushed))
        elif isinstance(node, nodes.HashJoin):
            found.append((name, "hash", None, node.columns))
        elif isinstance(node, nodes.NestedLoop) and node.index is not None:
            probed = node.index.columns[:len(node.keys)]
            kind = "index" if probed == node.index.columns else "prefix"
            found.append((name, kind, node.index.name, probed))
        elif isinstance(node, nodes.NestedLoop):
            found.append((name, "loop", None, ()))
        node = node.source
    return found[::-1]


@pytest.mark.parametrize("case, expected", list(zip(CORPUS, PARENT_PATHS)))
def test_paths_equal_the_parent_commits(catalogs, case, expected):
    schema, sql, params = case
    before, now = WIDENED.get(sql, (expected, expected))
    assert before == expected
    assert paths_of(plan_of(catalogs[schema], sql, params)) == now



# ---------------------------------------------------------------------------
# The residual: what a base table's filter still checks
# ---------------------------------------------------------------------------

RESIDUAL_DDL = [
    "CREATE TABLE r (id INT PRIMARY KEY, a INT, b INT, c INT)",
    "CREATE INDEX r_ab ON r (a, b)",
    "CREATE TABLE q (id INT PRIMARY KEY, k INT)",
    "INSERT INTO r VALUES (1, 1, 0, 3), (2, 1, 1, 3), (3, 1, 2, 4), "
    "(4, 1, NULL, 3), (5, NULL, 1, 3), (6, NULL, NULL, 4), (7, 2, 2, 3), "
    "(8, 1, 3, NULL), (9, 1, 1, 4)",
    "INSERT INTO q VALUES (1, 1), (2, 2)",
]

#: (WHERE over ``r``, params, the filter the plan keeps: None for none).
#: ``r_ab``'s columns are nullable; ``id`` is NOT NULL.
RESIDUAL_CASES = [
    # a NULL equality: the key encoding matches NULLs, SQL does not
    ("a = ?", [None], "(Col(a) = Param(0))"),
    ("a = ? AND b = ?", [1, None], "(Col(b) = Param(1))"),
    # the second equality on a column is not the one probed
    ("a = 1 AND b = 1 AND b = 0", [], "(Col(b) = Literal(0))"),
    # a range starts at a > bound: the rows equal to it come too
    ("a = 1 AND b > 1", [], "(Col(b) > Literal(1))"),
    ("a = 1 AND b >= 1", [], None),
    ("a = 1 AND b >= 1.5", [], None),
    # a bool bound ranks below every integer: the range holds them all
    ("a = 1 AND b >= TRUE", [], "(Col(b) >= Literal(True))"),
    # NULLs sort below an upper bound on a nullable column
    ("a = 1 AND b < 2", [], "(Col(b) < Literal(2))"),
    ("a = 1 AND b <= 2", [], "(Col(b) <= Literal(2))"),
    ("id >= 2 AND id < 5", [], None),
    ("id > 2 AND id <= 5", [], "(Col(id) > Literal(2))"),
    ("id BETWEEN 2 AND 5", [], None),
    ("a = 1 AND c = 3", [], "(Col(c) = Literal(3))"),
    ("c = 3 AND a = 1 AND b >= 1 AND b < 3", [],
     "((Col(c) = Literal(3)) and (Col(b) < Literal(3)))"),
    ("a = 1 OR b = 2", [], "((Col(a) = Literal(1)) or (Col(b) = Literal(2)))"),
]


@pytest.fixture(scope="module")
def residual_session():
    session = Database(storage_nodes=2).session()
    for text in RESIDUAL_DDL:
        session.execute(text)
    return session


def filters_of(root):
    node, found = root, []
    while node is not None:
        if isinstance(node, nodes.Filter):
            found.append(repr(node.condition))
        node = node.source
    return found


@pytest.mark.parametrize("where, params, kept", RESIDUAL_CASES)
def test_base_table_filter_is_the_residual(residual_session, where, params, kept):
    """The filter holds what the access path does not enforce, and the
    rows are those the whole WHERE keeps of a scan."""
    sql = f"SELECT * FROM r WHERE {where}"
    catalog = residual_session.catalog
    assert filters_of(plan_of(catalog, sql, params)) == ([kept] if kept else [])
    keep = Compiler(Layout((("r", catalog.table("r"), 0),)), params)(parse(sql).where)
    every = [tuple(row.values()) for row in residual_session.query("SELECT * FROM r")]
    expected = sorted((row for row in every if keep(row) is True), key=lambda row: row[0])
    rows = [tuple(row.values()) for row in residual_session.query(sql, params)]
    assert sorted(rows, key=lambda row: row[0]) == expected


def test_a_column_a_join_takes_over_is_checked_again(residual_session):
    """Unqualified, ``id`` names ``r.id`` to the base access but no one
    column once ``q`` is joined: the filter keeps it."""
    catalog = residual_session.catalog
    join = "SELECT r.id FROM r JOIN q ON q.k = r.a WHERE {} = 4"
    assert filters_of(plan_of(catalog, join.format("r.id"))) == []
    assert filters_of(plan_of(catalog, join.format("id"))) == ["(Col(id) = Literal(4))"]
