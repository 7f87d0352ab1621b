"""Model-based testing: the SQL engine against a plain-dict oracle.

Hypothesis drives random INSERT/UPDATE/DELETE sequences against both the
real database and an in-memory dict model, then checks that a battery of
SELECT shapes (point lookup, secondary-index lookup, range, scan,
aggregate) returns exactly what the model predicts.  A second, randomly
filled table is then joined to the first in every strategy the executor
has (index nested-loop, hash, nested loop; inner and LEFT; NULL keys on
either side), again against the model.  A second property joins a table
with a three-column primary key through every prefix of it, over rows the
transaction itself wrote, against a brute-force oracle.  A third generates
statements and checks that executing one touches exactly the tables,
through exactly the access methods, that its plan names.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.effects import run_direct
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.plan import plan
from tests.test_explain import _RecordingTable
from tests.test_sql_plan import paths_of

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(min_value=0, max_value=30),   # id
            st.integers(min_value=-50, max_value=50),  # v
            st.sampled_from(["red", "green", "blue", None]),
        ),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=-50, max_value=50),
            st.sampled_from(["red", "green", "blue", None]),
        ),
        st.tuples(
            st.just("delete"),
            st.integers(min_value=0, max_value=30),
            st.just(0),
            st.just(None),
        ),
    ),
    max_size=40,
)

#: Rows of the second table ``u (k, ref, color)``: ``ref`` points at a
#: ``t.id`` that may not exist (or is NULL), ``color`` may be NULL.
references = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        st.sampled_from(["red", "green", "blue", None]),
    ),
    max_size=8,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations=operations, references=references)
def test_sql_engine_matches_dict_model(operations, references):
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, color TEXT)"
    )
    session.execute("CREATE INDEX t_color ON t (color)")
    model = {}

    for op, key, value, color in operations:
        if op == "insert":
            if key in model:
                continue  # the engine would raise DuplicateKey; model skips
            session.execute(
                "INSERT INTO t VALUES (?, ?, ?)", [key, value, color]
            )
            model[key] = (value, color)
        elif op == "update":
            session.execute(
                "UPDATE t SET v = ?, color = ? WHERE id = ?",
                [value, color, key],
            )
            if key in model:
                model[key] = (value, color)
        else:
            session.execute("DELETE FROM t WHERE id = ?", [key])
            model.pop(key, None)

    # full scan
    rows = session.query("SELECT id, v, color FROM t ORDER BY id")
    assert [(r["id"], r["v"], r["color"]) for r in rows] == [
        (key, *model[key]) for key in sorted(model)
    ]

    # point lookups (hit and miss)
    for key in (0, 7, 15, 30):
        rows = session.query("SELECT v FROM t WHERE id = ?", [key])
        if key in model:
            assert rows == [{"v": model[key][0]}]
        else:
            assert rows == []

    # secondary-index lookups
    for color in ("red", "green", "blue"):
        rows = session.query(
            "SELECT id FROM t WHERE color = ? ORDER BY id", [color]
        )
        expected = sorted(k for k, (_v, c) in model.items() if c == color)
        assert [r["id"] for r in rows] == expected

    # range predicate
    rows = session.query("SELECT id FROM t WHERE id >= 10 AND id < 20 ORDER BY id")
    assert [r["id"] for r in rows] == sorted(
        k for k in model if 10 <= k < 20
    )

    # aggregates
    rows = session.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
    expected_sum = sum(v for v, _c in model.values()) if model else None
    assert rows == [{"n": len(model), "s": expected_sum}]

    # NULL handling in the index
    rows = session.query("SELECT COUNT(*) AS n FROM t WHERE color IS NULL")
    assert rows == [{"n": sum(1 for _v, c in model.values() if c is None)}]

    # -- joins against a second table ---------------------------------------
    session.execute("CREATE TABLE u (k INT PRIMARY KEY, ref INT, color TEXT)")
    for k, (ref, color) in enumerate(references):
        session.execute("INSERT INTO u VALUES (?, ?, ?)", [k, ref, color])
    u = list(enumerate(references))

    def joined(sql):
        plan = "\n".join(session.explain(sql))
        return plan, [tuple(row.values()) for row in session.query(sql)]

    # inner join through an index (t's primary key)
    plan, rows = joined(
        "SELECT u.k, t.v FROM u JOIN t ON t.id = u.ref ORDER BY u.k"
    )
    assert "index nested-loop join via t_pk" in plan
    assert rows == [
        (k, model[ref][0]) for k, (ref, _c) in u if ref in model
    ]

    # the same join the other way round: u.ref has no index -> hash join
    plan, rows = joined(
        "SELECT t.id, u.k FROM t JOIN u ON u.ref = t.id ORDER BY t.id, u.k"
    )
    assert "hash join on ref" in plan
    assert rows == sorted(
        (ref, k) for k, (ref, _c) in u if ref in model
    )

    # LEFT JOIN keeps unmatched left rows: through the index ...
    plan, rows = joined(
        "SELECT u.k, t.id FROM u LEFT JOIN t ON t.id = u.ref ORDER BY u.k"
    )
    assert "index nested-loop join via t_pk" in plan
    assert rows == [
        (k, ref if ref in model else None) for k, (ref, _c) in u
    ]
    # ... and without one (hashed, like the inner join above)
    plan, rows = joined(
        "SELECT t.id, COUNT(u.k) AS n FROM t LEFT JOIN u ON u.ref = t.id "
        "GROUP BY t.id ORDER BY t.id"
    )
    assert "left join u [u]: hash join on ref" in plan
    assert rows == [
        (key, sum(1 for _k, (ref, _c) in u if ref == key))
        for key in sorted(model)
    ]

    # NULL join keys on either side never match: hashed ...
    plan, rows = joined(
        "SELECT t.id, u.k FROM t JOIN u ON u.color = t.color "
        "ORDER BY t.id, u.k"
    )
    assert "hash join on color" in plan
    expected = sorted(
        (key, k)
        for key, (_v, color) in model.items()
        for k, (_ref, other) in u
        if color is not None and color == other
    )
    assert rows == expected
    # ... and probed through t's secondary index
    plan, rows = joined(
        "SELECT t.id, u.k FROM u JOIN t ON t.color = u.color "
        "ORDER BY t.id, u.k"
    )
    assert "index nested-loop join via t_color" in plan
    assert rows == expected


# ---------------------------------------------------------------------------
# Joins through a key prefix
# ---------------------------------------------------------------------------

_small = st.integers(min_value=0, max_value=2)
_small_or_null = st.one_of(st.none(), st.integers(min_value=0, max_value=3))

#: DML on ``p (a, b, c, d, v)``: (op, key, the ``c`` an update moves the row
#: to, d, v).  Moving ``c`` moves the row inside ``p_pk`` and leaves a stale
#: entry behind.
_p_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.tuples(_small, _small, _small), _small, _small_or_null,
              st.integers(min_value=-9, max_value=9)),
    max_size=12,
)
#: Rows of the outer table ``o (id, a, b, c)``; any of a, b, c may be NULL.
_o_rows = st.lists(st.tuples(_small_or_null, _small_or_null, _small_or_null),
                   min_size=1, max_size=6)


def _eq(x, y):
    return x is not None and y is not None and x == y


def _plus_one(x):
    return None if x is None else x + 1


#: (ON clause, what it means for outer row ``o = (id, a, b, c)`` and inner
#: row ``p = (a, b, c, d, v)``, the strategy EXPLAIN must name).
_PREFIX_JOINS = [
    ("p.a = o.a",
     lambda o, p: _eq(p[0], o[1]), "via p_pk prefix (a)"),
    ("p.a = o.a AND p.b = o.b",
     lambda o, p: _eq(p[0], o[1]) and _eq(p[1], o[2]), "via p_pk prefix (a, b)"),
    ("p.a = o.a AND p.c = o.c",  # prefix + an equality the probe cannot use
     lambda o, p: _eq(p[0], o[1]) and _eq(p[2], o[3]), "via p_pk prefix (a)"),
    ("p.a = o.a AND p.b >= o.b AND p.b < 2",  # prefix + range
     lambda o, p: _eq(p[0], o[1]) and o[2] is not None and o[2] <= p[1] < 2,
     "via p_pk prefix (a)"),
    ("p.a = 1 AND p.b = o.b",  # a constant key part
     lambda o, p: p[0] == 1 and _eq(p[1], o[2]), "via p_pk prefix (a, b)"),
    ("p.a = o.a + 1",  # an arithmetic one
     lambda o, p: _eq(p[0], _plus_one(o[1])), "via p_pk prefix (a)"),
    ("p.a = o.a AND p.b = o.b AND p.c = o.c",  # the full key: a lookup
     lambda o, p: _eq(p[0], o[1]) and _eq(p[1], o[2]) and _eq(p[2], o[3]),
     "index nested-loop join via p_pk\n"),
    ("p.b = o.b AND p.d = o.c",  # no index leads with b: hashed, NULLs both sides
     lambda o, p: _eq(p[1], o[2]) and _eq(p[3], o[3]), "hash join on b, d"),
]


def _nulls_first(row):
    return tuple((value is not None, value) for value in row)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(committed=_p_operations, local=_p_operations, outer=_o_rows)
def test_prefix_joins_match_brute_force(committed, local, outer):
    session = Database(storage_nodes=2).session()
    session.execute("CREATE TABLE o (id INT PRIMARY KEY, a INT, b INT, c INT)")
    session.execute("CREATE TABLE p (a INT, b INT, c INT, d INT, v INT, "
                    "PRIMARY KEY (a, b, c))")
    model = {}

    def apply(operations):
        for op, key, new_c, d, v in operations:
            if op == "insert" and key not in model:
                session.execute("INSERT INTO p VALUES (?, ?, ?, ?, ?)", [*key, d, v])
                model[key] = (d, v)
            elif op == "update" and key in model:
                moved = (key[0], key[1], new_c)
                if moved != key and moved in model:
                    continue  # the engine would raise DuplicateKey
                session.execute("UPDATE p SET c = ?, d = ?, v = ? "
                                "WHERE a = ? AND b = ? AND c = ?", [new_c, d, v, *key])
                del model[key]
                model[moved] = (d, v)
            elif op == "delete":
                session.execute("DELETE FROM p WHERE a = ? AND b = ? AND c = ?", key)
                model.pop(key, None)

    o_rows = [(i, *values) for i, values in enumerate(outer)]
    for row in o_rows:
        session.execute("INSERT INTO o VALUES (?, ?, ?, ?)", row)
    apply(committed)
    session.begin()
    apply(local)  # the joins below run over the transaction's own writes
    p_rows = [(*key, *rest) for key, rest in model.items()]
    for on, joins, strategy in _PREFIX_JOINS:
        for kind in ("JOIN", "LEFT JOIN"):
            sql = f"SELECT o.*, p.* FROM o {kind} p ON {on}"
            assert strategy in "\n".join(session.explain(sql)) + "\n", sql
            expected = []
            for o in o_rows:
                matches = [o + p for p in p_rows if joins(o, p)]
                if kind == "LEFT JOIN" and not matches:
                    matches = [o + (None,) * 5]
                expected += matches
            rows = session.execute(sql).rows
            assert sorted(rows, key=_nulls_first) == sorted(expected, key=_nulls_first), sql
    session.rollback()


# ---------------------------------------------------------------------------
# The plan names what execution touches
# ---------------------------------------------------------------------------

_COLUMNS = {"t": ("id", "v", "color"), "u": ("k", "ref", "color")}

#: Constants by column type (a type-mismatched comparison is an error of
#: its own); some are expressions the planner has to fold.
_numbers = st.one_of(
    st.integers(min_value=-5, max_value=35).map(str),
    st.sampled_from(["1 + 1", "-3", "2 * 5"]),
)
_colors = st.sampled_from(["'red'", "'blue'", "'mauve'"])


def _constant_for(column):
    return _colors if column.endswith("color") else _numbers


@st.composite
def _predicate(draw, table, prefix=""):
    column = prefix + draw(st.sampled_from(_COLUMNS[table]))
    constants = _constant_for(column)
    shape = draw(st.sampled_from(["comparison", "flipped", "between"]))
    if shape == "between":
        return f"{column} BETWEEN {draw(constants)} AND {draw(constants)}"
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "!="]))
    if shape == "flipped":
        return f"{draw(constants)} {op} {column}"
    return f"{column} {op} {draw(constants)}"


@st.composite
def _single_table_statements(draw):
    table = draw(st.sampled_from(sorted(_COLUMNS)))
    where = " AND ".join(draw(st.lists(_predicate(table), max_size=3)))
    where = f" WHERE {where}" if where else ""
    return draw(st.sampled_from([
        f"SELECT * FROM {table}{where}",
        f"SELECT * FROM {table}{where} FOR UPDATE",
        f"SELECT COUNT(*) FROM {table}{where}",
        f"UPDATE {table} SET color = color{where}",
        f"DELETE FROM {table}{where}",
    ]))


@st.composite
def _join_statements(draw):
    # No WHERE: the outer input is the whole (non-empty) base table, so the
    # inner table is always reached.
    outer, inner = draw(st.permutations(sorted(_COLUMNS)))

    @st.composite
    def pair(draw):
        column = draw(st.sampled_from(_COLUMNS[inner]))
        same_type = [
            other for other in _COLUMNS[outer]
            if (other == "color") == (column == "color")
        ]
        op = draw(st.sampled_from(["=", "<", ">="]))
        return f"b.{column} {op} a.{draw(st.sampled_from(same_type))}"

    on = draw(st.lists(st.one_of(pair(), _predicate(inner, "b.")),
                       min_size=1, max_size=3))
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    return f"SELECT * FROM {outer} a {kind} {inner} b ON {' AND '.join(on)}"


#: What ``paths_of`` calls a decision -> the ``Table`` method it runs.
_METHODS = {"lookup": "lookup", "range": "index_range", "scan": "scan",
            "index": "lookup", "prefix": "index_range", "hash": "scan",
            "loop": "scan"}


def _named_accesses(root):
    """(table, Table method) for every access the plan names."""
    return {
        (path[0], _METHODS[path[1]] + ("+pushdown" if path[-1] and path[1] == "scan" else ""))
        for path in paths_of(root)
    }


@pytest.fixture(scope="module")
def populated():
    session = Database(storage_nodes=2).session()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, color TEXT)")
    session.execute("CREATE INDEX t_color ON t (color)")
    session.execute("CREATE TABLE u (k INT PRIMARY KEY, ref INT, color TEXT)")
    session.execute("CREATE INDEX u_ref ON u (ref, color)")
    for i in range(12):
        color = ["red", "green", "blue", None][i % 4]
        session.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i - 6, color])
        session.execute("INSERT INTO u VALUES (?, ?, ?)", [i, i % 5, color])
    return session


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sql=st.one_of(_single_table_statements(), _join_statements()))
def test_execution_touches_exactly_what_the_plan_names(populated, sql):
    session = populated
    statement = parse(sql)
    txn = session.begin()
    try:
        calls = {name: [] for name in _COLUMNS}

        def provider(name):
            table = _RecordingTable(session.catalog.table(name), txn, session.indexes)
            table.calls = calls[name]
            return table

        named = _named_accesses(plan(statement, provider))
        run_direct(StatementExecutor(provider).execute(statement), session.dispatcher)
        touched = {(name, call) for name in calls for call in calls[name]}
        assert touched == named, sql
    finally:
        session.rollback()
