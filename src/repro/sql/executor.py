"""Execution of planned SQL statements.

:func:`repro.sql.plan.plan` decides everything a statement decides and
hands over a tree of nodes; :class:`StatementExecutor` interprets it.  The
interpreter compiles the expressions a node carries into closures over
positional rows (:mod:`repro.sql.expr`) and runs the node's stage to a
materialized list (OLTP result sets are small; OLAP scans ship data to the
query by construction).  Nothing is kept between executions, so a
statement always sees the current schema.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.spaces import data_key
from repro.errors import MultipleResultRows, NoResultRows
from repro.sql import ast_nodes as ast
from repro.sql import plan as nodes
from repro.sql.expr import (AGGREGATE_FUNCTIONS, Compiler, Row, RowFn,
                             type_mismatch)
from repro.sql.plan import plan


class ResultSet:
    """What a statement execution returns.

    Every ``Session.execute`` call produces one of these: ``columns``,
    ``rows`` (tuples), and ``rowcount`` (rows affected for DML).  The
    helpers cover the common shapes -- ``dicts()`` for labelled rows,
    ``one()`` for exactly-one-row queries, ``scalar()`` for single
    values.  ``Session.query`` remains the dict-rows convenience wrapper.
    """

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, columns: List[str], rows: List[Tuple[Any, ...]],
                 rowcount: int):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount

    def dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def one(self) -> Tuple[Any, ...]:
        """The single row of the result.

        Raises :class:`repro.errors.NoResultRows` on an empty result and
        :class:`repro.errors.MultipleResultRows` when more than one row
        came back -- use it when the query must identify exactly one row.
        """
        if not self.rows:
            raise NoResultRows("one() on an empty result")
        if len(self.rows) > 1:
            raise MultipleResultRows(
                f"one() on a result with {len(self.rows)} rows"
            )
        return self.rows[0]

    def scalar(self) -> Any:
        """First column of the first row, or ``None`` for an empty result
        (the lenient counterpart of ``one()[0]``)."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"<ResultSet {self.columns} x{len(self.rows)}>"


def _compute_aggregate(
    call: ast.FuncCall, argument: Optional[RowFn], rows: List[Row]
) -> Any:
    if argument is None:  # COUNT(*)
        return len(rows)
    values = [value for value in map(argument, rows) if value is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.name == "count":
        return len(values)
    if not values:
        return None
    try:
        return AGGREGATE_FUNCTIONS[call.name](values)
    except TypeError:
        raise type_mismatch(f"aggregate {call.name.upper()}", values) from None


class StatementExecutor:
    """Plans and runs DML/query statements inside one transaction.

    ``table_provider(name)`` returns a bound :class:`Table` handle.
    """

    def __init__(self, table_provider, params: Sequence[Any] = ()):  # noqa: ANN001
        self.tables = table_provider
        self.params = list(params)

    def execute(self, stmt: ast.Statement) -> Generator:
        """Plan ``stmt`` and run the plan; returns a :class:`ResultSet`."""
        return (yield from self.run(plan(stmt, self.tables, self.params)))

    select = insert = update = delete = execute

    def run(self, root: nodes.Node) -> Generator:
        if isinstance(root, nodes.Insert):
            return (yield from self._insert(root))
        if isinstance(root, (nodes.Update, nodes.Delete)):
            pairs = yield from self._pairs(root.source)
            if isinstance(root, nodes.Update):
                compile = Compiler(root.source.layout, self.params)
                assignments = [
                    (column, compile(expr)) for column, expr in root.assignments
                ]
                for rid, row in pairs:
                    changes = {column: value(row) for column, value in assignments}
                    yield from root.table.update_by_rid(rid, changes)
            else:
                for rid, _row in pairs:
                    yield from root.table.delete_by_rid(rid)
            return ResultSet([], [], len(pairs))
        rows = yield from self._rows(root)
        return ResultSet(list(root.columns), rows, len(rows))

    def _insert(self, node: nodes.Insert) -> Generator:
        if node.source is not None:
            rows = yield from self._rows(node.source)
        else:
            compile = Compiler(nodes.OneRow.layout, self.params)
            rows = [[compile(expr)(()) for expr in row] for row in node.rows]
        for row in rows:
            yield from node.table.insert(dict(zip(node.columns, row)))
        return ResultSet([], [], len(rows))

    # -- rows with their ids: base-table access --------------------------------------

    def _pairs(self, node: nodes.Node) -> Generator:
        """``[(rid, row)]`` of a base-table access, under its filter if it
        has one: what locks, updates and deletes work on."""
        if isinstance(node, nodes.Filter):
            pairs = yield from self._pairs(node.source)
            keep = Compiler(node.layout, self.params)(node.condition)
            return [pair for pair in pairs if keep(pair[1]) is True]
        if isinstance(node, nodes.PointGet):
            return (yield from node.table.lookup(node.index, node.key))
        if isinstance(node, nodes.IndexRange):
            return (yield from node.table.index_range(
                node.index, node.low, node.high, node.include_high
            ))
        return (yield from node.table.scan(node.pushdown))

    # -- rows: the SELECT pipeline ---------------------------------------------------

    def _rows(self, node: nodes.Node) -> Generator:
        """The stage that produces ``node``'s rows, its input's run first."""
        return self._STAGES[type(node)](self, node)

    def _access(self, node: nodes.Node) -> Generator:
        return [row for _rid, row in (yield from self._pairs(node))]

    def _one_row(self, node: nodes.OneRow) -> Generator:
        return [()]
        yield  # a generator like every stage

    def _filter(self, node: nodes.Filter) -> Generator:
        rows = yield from self._rows(node.source)
        keep = Compiler(node.layout, self.params)(node.condition)
        return [row for row in rows if keep(row) is True]

    def _lock(self, node: nodes.Lock) -> Generator:
        # Materialize the reads: concurrent writers conflict.
        pairs = yield from self._pairs(node.source)
        for rid, _row in pairs:
            yield from node.table.txn.read_for_update(
                data_key(node.table.schema.table_id, rid)
            )
        return [row for _rid, row in pairs]

    def _join_inputs(self, node: nodes.Node) -> Generator:
        """What both join stages start from: the left rows, their key
        tuples (the outer key expressions range over the left tables) and
        the compiled conditions on a joined row."""
        left_rows = yield from self._rows(node.source)
        outer = Compiler(node.source.layout, self.params)
        key_parts = [outer(expr) for expr in node.keys]
        keys = [tuple([part(left) for part in key_parts]) for left in left_rows]
        compile = Compiler(node.layout, self.params)
        return left_rows, keys, [compile(cond) for cond in node.conditions]

    def _nested_loop(self, node: nodes.NestedLoop) -> Generator:
        """Left-major, inner rows in access order; without left rows the
        table is not read at all."""
        left_rows, keys, conditions = yield from self._join_inputs(node)
        table = node.table
        if left_rows and node.index is None:
            matches = yield from table.scan()
        full_key = node.index is not None and len(node.keys) == len(node.index.columns)
        padding = (None,) * len(table.schema.columns)
        out: List[Row] = []
        for left, key in zip(left_rows, keys):
            if None in key:
                matches = []  # NULL never equi-joins
            elif full_key:
                matches = yield from table.lookup(node.index, key)
            elif node.index is not None:  # every entry sharing the key prefix
                matches = yield from table.index_range(
                    node.index, key, key, include_high=True
                )
            matched = False
            for _rid, inner in matches:
                candidate = left + inner
                if all(cond(candidate) is True for cond in conditions):
                    out.append(candidate)
                    matched = True
            if node.kind == "left" and not matched:
                out.append(left + padding)
        return out

    def _hash_join(self, node: nodes.HashJoin) -> Generator:
        """Build on the (filtered, usually small) left input and stream the
        scanned side past it: an inner row that matches nothing is looked
        at once and never copied.  A NULL key joins nothing: left rows
        carrying one are not entered, so inner ones find no bucket.  A
        LEFT join pads the left rows nothing joined."""
        left_rows, keys, conditions = yield from self._join_inputs(node)
        if not left_rows:
            return []
        inner_key = operator.itemgetter(
            *[node.table.schema.position(column) for column in node.columns]
        )
        keys = [None if None in key else key for key in keys]
        if len(node.columns) == 1:  # bare, as itemgetter shapes the inner key
            keys = [key if key is None else key[0] for key in keys]
        buckets: Dict[Any, List[Row]] = {key: [] for key in keys if key is not None}
        inner_pairs = yield from node.table.scan()
        for _rid, inner in inner_pairs:
            bucket = buckets.get(inner_key(inner))
            if bucket is not None:
                bucket.append(inner)
        padding = (None,) * len(node.table.schema.columns)
        out: List[Row] = []
        for left, key in zip(left_rows, keys):
            matched = False
            for inner in buckets.get(key, ()):
                candidate = left + inner
                if all(cond(candidate) is True for cond in conditions):
                    out.append(candidate)
                    matched = True
            if node.kind == "left" and not matched:
                out.append(left + padding)
        return out

    def _aggregate(self, node: nodes.Aggregate) -> Generator:
        """One row per group -- the group's first row (NULLs for the one
        group of an empty ungrouped input) followed by the aggregate
        values, where ``node.layout`` says they are."""
        rows = yield from self._rows(node.source)
        compile = Compiler(node.source.layout, self.params)
        calls = [(call, None if call.star else compile(call.args[0])) for call in node.calls]
        if node.group_by:
            parts = [compile(expr) for expr in node.group_by]
            groups: Dict[Tuple, List[Row]] = {}
            for row in rows:
                key = tuple([_SortKey(part(row)) for part in parts])
                groups.setdefault(key, []).append(row)
            grouped = list(groups.values())
        else:
            grouped = [rows]
        width = node.source.layout.width
        return [
            (members[0] if members else (None,) * width) + tuple([
                _compute_aggregate(call, argument, members)
                for call, argument in calls
            ])
            for members in grouped
        ]

    def _sort(self, node: nodes.Sort) -> Generator:
        rows = yield from self._rows(node.source)
        compile = Compiler(node.layout, self.params)
        for expr, descending in reversed(node.keys):
            key = compile(expr)
            rows.sort(key=lambda row: _SortKey(key(row)), reverse=descending)
        return rows

    def _project(self, node: nodes.Project) -> Generator:
        rows = yield from self._rows(node.source)
        compile = Compiler(node.layout, self.params)
        extractors = [
            operator.itemgetter(expr) if isinstance(expr, int) else compile(expr)
            for expr in node.exprs
        ]
        projected = [
            tuple([extract(row) for extract in extractors]) for row in rows
        ]
        return list(dict.fromkeys(projected)) if node.distinct else projected

    def _limit(self, node: nodes.Limit) -> Generator:
        return (yield from self._rows(node.source))[: node.count]

    _STAGES = {
        nodes.OneRow: _one_row,
        nodes.PointGet: _access,
        nodes.IndexRange: _access,
        nodes.Scan: _access,
        nodes.NestedLoop: _nested_loop,
        nodes.HashJoin: _hash_join,
        nodes.Filter: _filter,
        nodes.Lock: _lock,
        nodes.Aggregate: _aggregate,
        nodes.Sort: _sort,
        nodes.Project: _project,
        nodes.Limit: _limit,
    }


class _SortKey:
    """Total order helper: None sorts first, mixed types by type name."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return a < b
        except TypeError:
            return str(type(a)) < str(type(b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

