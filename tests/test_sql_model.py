"""Model-based testing: the SQL engine against a plain-dict oracle.

Hypothesis drives random INSERT/UPDATE/DELETE sequences against both the
real database and an in-memory dict model, then checks that a battery of
SELECT shapes (point lookup, secondary-index lookup, range, scan,
aggregate) returns exactly what the model predicts.  A second, randomly
filled table is then joined to the first in every strategy the executor
has (index nested-loop, hash, nested loop; inner and LEFT; NULL keys on
either side), again against the model.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database

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
    # ... and without one (nested loop)
    plan, rows = joined(
        "SELECT t.id, COUNT(u.k) AS n FROM t LEFT JOIN u ON u.ref = t.id "
        "GROUP BY t.id ORDER BY t.id"
    )
    assert "nested-loop join" in plan
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
