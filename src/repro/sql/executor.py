"""Planning and execution of parsed SQL statements.

Each execution resolves its statement once and then runs on positional
rows: every column reference becomes a position in the row tuple
(:class:`_Layout`), every parameter its bound value, and the WHERE / ON /
SET / projection / aggregate / ORDER BY expressions closures over row
tuples (:class:`_Compiler`).  Stages are materialized lists (OLTP result
sets are small; OLAP scans ship data to the query by construction).
Nothing is kept between executions, so a statement always sees the
current schema.  Access-path selection is rule-based:

* a conjunction of equality predicates covering an index's full key ->
  index lookup;
* equality/range predicates on a prefix of an index key -> index range
  scan;
* otherwise -> full table scan through the storage layer's Scan.

Joins prefer an index nested-loop when the inner table has a usable index
on the join key, falling back to a hash join for inner equi-joins and to a
filtered nested loop otherwise.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.spaces import data_key
from repro.errors import SqlPlanError
from repro.sql import ast_nodes as ast
from repro.sql.schema import IndexDef, TableSchema
from repro.sql.table import Table

AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}

#: The FROM tables' stored row tuples side by side (see :class:`_Layout`).
Row = Tuple[Any, ...]
RowFn = Callable[[Row], Any]


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
        from repro.errors import MultipleResultRows, NoResultRows

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


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return re.compile("".join(out), re.IGNORECASE)


def _substr(args: List[Any]) -> Any:
    if args[0] is None:
        return None
    start = int(args[1]) - 1
    if len(args) > 2:
        return str(args[0])[start : start + int(args[2])]
    return str(args[0])[start:]


#: name -> function of the evaluated argument list.
SCALAR_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "abs": lambda args: None if args[0] is None else abs(args[0]),
    "lower": lambda args: None if args[0] is None else str(args[0]).lower(),
    "upper": lambda args: None if args[0] is None else str(args[0]).upper(),
    "length": lambda args: None if args[0] is None else len(str(args[0])),
    "round": lambda args: None if args[0] is None else round(
        args[0], int(args[1]) if len(args) > 1 else 0
    ),
    "coalesce": lambda args: next(
        (value for value in args if value is not None), None
    ),
    "substr": _substr,
}

#: Operators that yield NULL when an operand is NULL.
_BINARY_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": operator.truediv,
}


def _param_value(param: ast.Param, params: Sequence[Any]) -> Any:
    try:
        return params[param.index]
    except IndexError:
        raise SqlPlanError(
            f"statement has parameter ${param.index} but only "
            f"{len(params)} values were bound"
        )


def _raiser(error: SqlPlanError) -> RowFn:
    """What cannot be resolved fails when a row reaches it, not when the
    statement is compiled: over no rows it is no error."""

    def fail(_row: Row) -> Any:
        raise error

    return fail


class _Layout:
    """Where each FROM-clause column sits in a positional row.

    A row is the tables' stored row tuples concatenated in FROM order, so
    a single-table statement runs on the stored tuples themselves and a
    join builds a new tuple only for a row it emits.
    """

    def __init__(self) -> None:
        #: (alias, schema, position of the table's first column)
        self.tables: List[Tuple[str, TableSchema, int]] = []
        self.width = 0

    def add(self, alias: str, schema: TableSchema) -> None:
        self.tables.append((alias, schema, self.width))
        self.width += len(schema.columns)

    def position(self, ref: ast.ColumnRef) -> Optional[int]:
        """Row position of ``ref``; None when it names no column -- or,
        unqualified, more than one."""
        if ref.table is None:
            hits = [
                offset + schema.position(ref.name)
                for _alias, schema, offset in self.tables
                if schema.has_column(ref.name)
            ]
            return hits[0] if len(hits) == 1 else None
        for alias, schema, offset in reversed(self.tables):
            if alias == ref.table and schema.has_column(ref.name):
                return offset + schema.position(ref.name)
        return None


class _Compiler:
    """Turns an expression into a closure over positional rows.

    Columns resolve through ``layout`` *as it stands at the call*,
    parameters to their bound values and -- after grouping -- aggregate
    calls to the row positions in ``aggregates``
    (:meth:`StatementExecutor._aggregate` appends the values there).
    """

    def __init__(self, layout: _Layout, params: Sequence[Any],
                 aggregates: Optional[Dict[str, int]] = None):
        self.layout = layout
        self.params = params
        self.aggregates = aggregates

    def __call__(self, expr: ast.Expr) -> RowFn:
        if isinstance(expr, ast.ColumnRef):
            position = self.layout.position(expr)
            if position is None:
                name = f"{expr.table}.{expr.name}" if expr.table else expr.name
                return _raiser(SqlPlanError(f"unknown column {name!r}"))
            return operator.itemgetter(position)
        if isinstance(expr, ast.Literal):
            return _constant(expr.value)
        if isinstance(expr, ast.Param):
            try:
                return _constant(_param_value(expr, self.params))
            except SqlPlanError as unbound:
                return _raiser(unbound)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.FuncCall):
            return self._function(expr)
        if isinstance(expr, ast.UnaryOp):
            function = {"-": operator.neg, "not": operator.not_}.get(expr.op)
            if function is None:
                raise SqlPlanError(f"unknown unary operator {expr.op!r}")
            return self._null_if_any_null(function, expr.operand)
        if isinstance(expr, ast.IsNull):
            operand, negated = self(expr.operand), expr.negated
            return lambda row: (operand(row) is None) != negated
        if isinstance(expr, ast.InList):
            operand, negated = self(expr.operand), expr.negated
            items = [self(item) for item in expr.items]

            def in_list(row: Row) -> Any:
                value = operand(row)
                if value is None:
                    return None
                return (value in [item(row) for item in items]) != negated

            return in_list
        if isinstance(expr, ast.Between):
            def between(value: Any, low: Any, high: Any) -> bool:
                return (low <= value <= high) != expr.negated

            return self._null_if_any_null(
                between, expr.operand, expr.low, expr.high
            )
        if isinstance(expr, ast.Like):
            def like(value: Any, pattern: Any) -> bool:
                matched = _like_to_regex(pattern).match(str(value))
                return (matched is not None) != expr.negated

            return self._null_if_any_null(like, expr.operand, expr.pattern)
        raise SqlPlanError(f"cannot evaluate {expr!r}")

    def _null_if_any_null(self, function: Callable[..., Any],
                          *operands: ast.Expr) -> RowFn:
        compiled = [self(operand) for operand in operands]

        def strict(row: Row) -> Any:
            values = [operand(row) for operand in compiled]
            return None if None in values else function(*values)

        return strict

    def _binary(self, expr: ast.BinaryOp) -> RowFn:
        left, right = self(expr.left), self(expr.right)
        if expr.op == "and":
            def conjunction(row: Row) -> Any:
                a = left(row)
                if a is False:
                    return False
                b = right(row)
                if b is False:
                    return False
                return None if a is None or b is None else True

            return conjunction
        if expr.op == "or":
            def disjunction(row: Row) -> Any:
                a = left(row)
                if a is True:
                    return True
                b = right(row)
                if b is True:
                    return True
                return None if a is None or b is None else False

            return disjunction
        function = _BINARY_OPERATORS.get(expr.op)
        if function is None:
            raise SqlPlanError(f"unknown operator {expr.op!r}")

        def binary(row: Row) -> Any:
            a = left(row)
            b = right(row)
            return None if a is None or b is None else function(a, b)

        return binary

    def _function(self, expr: ast.FuncCall) -> RowFn:
        if expr.name in AGGREGATE_FUNCTIONS:
            position = (self.aggregates or {}).get(_aggregate_key(expr))
            if position is None:
                return _raiser(SqlPlanError(
                    f"aggregate {expr.name} used outside GROUP BY context"
                ))
            return operator.itemgetter(position)
        function = SCALAR_FUNCTIONS.get(expr.name)
        if function is None:
            return _raiser(SqlPlanError(f"unknown function {expr.name!r}"))
        args = [self(arg) for arg in expr.args]
        return lambda row: function([arg(row) for arg in args])


def _constant(value: Any) -> RowFn:
    return lambda _row: value


def _aggregate_key(call: ast.FuncCall) -> str:
    inner = "*" if call.star else repr(call.args[0]) if call.args else ""
    distinct = "distinct " if call.distinct else ""
    return f"__agg_{call.name}({distinct}{inner})"


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
    if call.name == "sum":
        return sum(values)
    if call.name == "avg":
        return sum(values) / len(values)
    if call.name == "min":
        return min(values)
    if call.name == "max":
        return max(values)
    raise SqlPlanError(f"unknown aggregate {call.name!r}")


def _collect_aggregates(expr: Optional[ast.Expr], out: List[ast.FuncCall]) -> None:
    if expr is None:
        return
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates(arg, out)
        return
    if isinstance(expr, ast.BinaryOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.InList):
        _collect_aggregates(expr.operand, out)
        for item in expr.items:
            _collect_aggregates(item, out)
    elif isinstance(expr, ast.Between):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, (ast.IsNull, ast.Like)):
        _collect_aggregates(expr.operand, out)


# ---------------------------------------------------------------------------
# Predicate analysis for access-path selection
# ---------------------------------------------------------------------------


def _conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _constant_value(
    expr: ast.Expr, params: Sequence[Any]
) -> Tuple[bool, Any]:
    """(is_constant, value) for literal/param expressions."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Param):
        return True, _param_value(expr, params)  # SqlPlanError when unbound
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        ok, value = _constant_value(expr.operand, params)
        return (ok, -value if ok and value is not None else None)
    return False, None


class _TablePredicates:
    """Equality and range constraints on one table's columns."""

    def __init__(self) -> None:
        self.equals: Dict[str, Any] = {}
        self.lower: Dict[str, Tuple[Any, bool]] = {}  # col -> (bound, incl)
        self.upper: Dict[str, Tuple[Any, bool]] = {}


def _analyze_predicates(
    condition: Optional[ast.Expr],
    alias: str,
    schema: TableSchema,
    params: Sequence[Any],
) -> _TablePredicates:
    analysis = _TablePredicates()
    for conjunct in _conjuncts(condition):
        column, op, value = _match_column_constant(conjunct, alias, schema, params)
        if column is None:
            if isinstance(conjunct, ast.Between) and not conjunct.negated:
                col = _own_column(conjunct.operand, alias, schema)
                ok_lo, lo = _constant_value(conjunct.low, params)
                ok_hi, hi = _constant_value(conjunct.high, params)
                if col and ok_lo and ok_hi:
                    analysis.lower[col] = (lo, True)
                    analysis.upper[col] = (hi, True)
            continue
        if op == "=":
            analysis.equals[column] = value
        elif op == ">":
            analysis.lower[column] = (value, False)
        elif op == ">=":
            analysis.lower[column] = (value, True)
        elif op == "<":
            analysis.upper[column] = (value, False)
        elif op == "<=":
            analysis.upper[column] = (value, True)
    return analysis


def _own_column(
    expr: ast.Expr, alias: str, schema: TableSchema
) -> Optional[str]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table != alias:
        return None
    if not schema.has_column(expr.name):
        return None
    return expr.name


_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _match_column_constant(
    conjunct: ast.Expr,
    alias: str,
    schema: TableSchema,
    params: Sequence[Any],
) -> Tuple[Optional[str], Optional[str], Any]:
    if not isinstance(conjunct, ast.BinaryOp):
        return None, None, None
    if conjunct.op not in _FLIPPED:
        return None, None, None
    column = _own_column(conjunct.left, alias, schema)
    if column is not None:
        ok, value = _constant_value(conjunct.right, params)
        if ok:
            return column, conjunct.op, value
    column = _own_column(conjunct.right, alias, schema)
    if column is not None:
        ok, value = _constant_value(conjunct.left, params)
        if ok:
            return column, _FLIPPED[conjunct.op], value
    return None, None, None


def _build_pushdown(schema: TableSchema, predicates: "_TablePredicates"):
    """Ship the analyzed constant predicates to the storage nodes
    (Section 5.2 operator push-down); None when nothing is pushable."""
    from repro.store.pushdown import ScanFilter

    conjuncts = []
    for column, value in predicates.equals.items():
        conjuncts.append((schema.position(column), "=", value))
    for column, (bound, inclusive) in predicates.lower.items():
        conjuncts.append((schema.position(column), ">=" if inclusive else ">", bound))
    for column, (bound, inclusive) in predicates.upper.items():
        conjuncts.append((schema.position(column), "<=" if inclusive else "<", bound))
    return ScanFilter(conjuncts) if conjuncts else None


def choose_access_path(
    schema: TableSchema, predicates: _TablePredicates
) -> Tuple[str, Optional[IndexDef], Any, Any, bool]:
    """Pick (kind, index, low, high, include_high).

    kind is "lookup" (full-key equality), "range" (prefix constraints) or
    "scan".  Among lookup candidates the unique index wins; among range
    candidates the longest constrained prefix wins.
    """
    best_lookup: Optional[IndexDef] = None
    best_range: Optional[Tuple[int, IndexDef]] = None
    for index in schema.indexes:
        if all(column in predicates.equals for column in index.columns):
            if best_lookup is None or (index.unique and not best_lookup.unique):
                best_lookup = index
            continue
        prefix = 0
        for column in index.columns:
            if column in predicates.equals:
                prefix += 1
            else:
                break
        extra = 0
        if prefix < len(index.columns):
            next_column = index.columns[prefix]
            if next_column in predicates.lower or next_column in predicates.upper:
                extra = 1
        if prefix + extra > 0:
            score = prefix * 2 + extra
            if best_range is None or score > best_range[0]:
                best_range = (score, index)
    if best_lookup is not None:
        key = tuple(predicates.equals[column] for column in best_lookup.columns)
        return "lookup", best_lookup, key, None, False
    if best_range is not None:
        index = best_range[1]
        low: List[Any] = []
        high: List[Any] = []
        include_high = True
        for column in index.columns:
            if column in predicates.equals:
                low.append(predicates.equals[column])
                high.append(predicates.equals[column])
            else:
                if column in predicates.lower:
                    bound, inclusive = predicates.lower[column]
                    low.append(bound)  # exclusive lows over-approximate
                if column in predicates.upper:
                    bound, inclusive = predicates.upper[column]
                    high.append(bound)
                    include_high = inclusive
                break
        low_key = tuple(low) if low else None
        high_key = tuple(high) if high else None
        return "range", index, low_key, high_key, include_high
    return "scan", None, None, None, False


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class StatementExecutor:
    """Executes DML/query statements inside one transaction.

    ``table_provider(name)`` returns a bound :class:`Table` handle.
    """

    def __init__(self, table_provider, params: Sequence[Any] = ()):  # noqa: ANN001
        self.tables = table_provider
        self.params = list(params)

    # -- base table access ------------------------------------------------------------

    def _access_path(
        self,
        table_ref: ast.TableRef,
        schema: TableSchema,
        condition: Optional[ast.Expr],
    ) -> Tuple[str, Optional[IndexDef], Any, Any, bool, Any]:
        """The access-path decision for one base table, read by execution
        and EXPLAIN alike: :func:`choose_access_path`'s tuple plus the
        storage-side filter, which is only built when the path is a scan."""
        predicates = _analyze_predicates(
            condition, table_ref.alias, schema, self.params
        )
        path = choose_access_path(schema, predicates)
        pushdown = _build_pushdown(schema, predicates) if path[0] == "scan" else None
        return path + (pushdown,)

    def _base_pairs(
        self,
        table: Table,
        table_ref: ast.TableRef,
        condition: Optional[ast.Expr],
    ) -> Generator:
        """``[(rid, row)]`` through the chosen access path: a superset of
        the rows ``condition`` keeps."""
        kind, index, low, high, include_high, pushdown = self._access_path(
            table_ref, table.schema, condition
        )
        if kind == "lookup":
            return (yield from table.lookup(index, low))
        if kind == "range":
            return (yield from table.index_range(index, low, high, include_high))
        return (yield from table.scan(pushdown))

    # -- SELECT --------------------------------------------------------------------------

    def _resolve_alias(self, stmt: ast.Select, expr: ast.Expr) -> ast.Expr:
        """ORDER BY / GROUP BY may reference select-item aliases."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in stmt.items:
                if item.alias == expr.name and item.expr is not None:
                    return item.expr
        return expr

    def select(self, stmt: ast.Select) -> Generator:
        if stmt.for_update and (stmt.group_by or stmt.joins):
            raise SqlPlanError(
                "FOR UPDATE requires a plain single-table SELECT"
            )
        layout = _Layout()
        rows: List[Row] = [()]
        if stmt.table is not None:
            table: Table = self.tables(stmt.table.name)
            layout.add(stmt.table.alias, table.schema)
            pairs = yield from self._base_pairs(table, stmt.table, stmt.where)
            rows = [row for _rid, row in pairs]
            for join in stmt.joins:
                rows = yield from self._join(rows, layout, join)
        compile = _Compiler(layout, self.params)

        if stmt.where is not None:
            where = compile(stmt.where)
            rows = [row for row in rows if where(row) is True]

        if stmt.for_update and stmt.table is not None:
            # Materialize the reads: concurrent writers conflict.  Without
            # joins ``rows`` still holds the stored tuples of ``pairs``.
            kept = set(map(id, rows))
            for rid, row in pairs:
                if id(row) in kept:
                    yield from table.txn.read_for_update(
                        data_key(table.schema.table_id, rid)
                    )

        order_by = [
            (self._resolve_alias(stmt, expr), descending)
            for expr, descending in stmt.order_by
        ]
        group_by = [self._resolve_alias(stmt, expr) for expr in stmt.group_by]

        aggregates: List[ast.FuncCall] = []
        for item in stmt.items:
            _collect_aggregates(item.expr, aggregates)
        _collect_aggregates(stmt.having, aggregates)
        for expr, _descending in order_by:
            _collect_aggregates(expr, aggregates)

        if group_by or aggregates:
            rows, compile = self._aggregate(compile, group_by, aggregates, rows)
        if stmt.having is not None:
            having = compile(stmt.having)
            rows = [row for row in rows if having(row) is True]

        for expr, descending in reversed(order_by):
            key = compile(expr)
            rows.sort(key=lambda row: _SortKey(key(row)), reverse=descending)

        columns, projected = self._project(stmt, rows, compile)
        if stmt.distinct:
            projected = list(dict.fromkeys(projected))
        if stmt.limit is not None:
            projected = projected[: stmt.limit]
        return ResultSet(columns, projected, len(projected))

    def _join(
        self, left_rows: List[Row], layout: _Layout, join: ast.Join
    ) -> Generator:
        """``left_rows`` joined to ``join.table``, whose columns this adds
        to ``layout``; left-major, inner rows in access order."""
        table: Table = self.tables(join.table.name)
        schema = table.schema
        strategy, index, equi, residual = self._join_plan(
            join, schema, {alias for alias, _schema, _offset in layout.tables}
        )
        # The outer key expressions range over the left tables, so they
        # are compiled before the layout grows.
        compile = _Compiler(layout, self.params)
        if strategy == "index":
            equi = sorted(equi, key=lambda pair: index.columns.index(pair[0]))
        outer_parts = [compile(expr) for _column, expr in equi]
        layout.add(join.table.alias, schema)
        if not left_rows:
            return []  # inner and left joins alike produce nothing
        conditions = [
            compile(cond) for cond in (
                [join.on] if strategy == "loop" else residual
            )
        ]
        out: List[Row] = []

        if strategy == "hash":
            # Build on the (filtered, usually small) left input and stream
            # the scanned side past it: an inner row that matches nothing
            # is looked at once and never copied.  A NULL key joins
            # nothing: left rows carrying one are not entered, so inner
            # ones find no bucket.
            inner_key = operator.itemgetter(
                *[schema.position(column) for column, _expr in equi]
            )
            outer_keys = []
            buckets: Dict[Any, List[Row]] = {}  # inner rows, in scan order
            for left in left_rows:
                key = tuple([part(left) for part in outer_parts])
                if None in key:
                    key = None
                else:
                    # shaped like itemgetter's result: bare for one column
                    key = key if len(key) > 1 else key[0]
                    buckets[key] = []
                outer_keys.append(key)
            inner_pairs = yield from table.scan()
            for _rid, inner in inner_pairs:
                bucket = buckets.get(inner_key(inner))
                if bucket is not None:
                    bucket.append(inner)
            for left, key in zip(left_rows, outer_keys):
                for inner in buckets.get(key, ()):
                    candidate = left + inner
                    if all(cond(candidate) is True for cond in conditions):
                        out.append(candidate)
            return out

        # Nested loop: index lookups per left row, or the scanned table
        # under the whole ON condition.
        if strategy == "loop":
            matches = yield from table.scan()
        for left in left_rows:
            if strategy == "index":
                key = tuple([part(left) for part in outer_parts])
                if None in key:
                    matches = []  # NULL never equi-joins
                else:
                    matches = yield from table.lookup(index, key)
            matched = False
            for _rid, inner in matches:
                candidate = left + inner
                if all(cond(candidate) is True for cond in conditions):
                    out.append(candidate)
                    matched = True
            if join.kind == "left" and not matched:
                out.append(left + (None,) * len(schema.columns))
        return out

    def _join_plan(
        self, join: ast.Join, schema: TableSchema, left_aliases: set
    ) -> Tuple[str, Optional[IndexDef], List[Tuple[str, ast.Expr]], List[ast.Expr]]:
        """The join decision, read by execution and EXPLAIN alike:
        ``(strategy, index, equi, residual)`` with strategy ``"index"``
        (nested-loop lookups through ``index``), ``"hash"`` or ``"loop"``.
        ``equi`` pairs are ``inner.column = <expr over the left scope>``,
        one per inner column (a second equality on a column already bound
        can only filter); ``residual`` holds the other ON conjuncts."""
        equi: List[Tuple[str, ast.Expr]] = []
        residual: List[ast.Expr] = []
        for conjunct in _conjuncts(join.on):
            pair = self._equi_pair(conjunct, join.table.alias, schema, left_aliases)
            if pair is not None and all(pair[0] != column for column, _ in equi):
                equi.append(pair)
            else:
                residual.append(conjunct)
        index = self._index_for_equi(schema, [column for column, _ in equi])
        if index is not None:
            strategy = "index"
        elif equi and join.kind == "inner":
            strategy = "hash"
        else:
            strategy = "loop"
        return strategy, index, equi, residual

    def _equi_pair(
        self,
        conjunct: ast.Expr,
        inner_alias: str,
        inner_schema: TableSchema,
        left_aliases: set,
    ) -> Optional[Tuple[str, ast.Expr]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        for inner_expr, outer_expr in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            column = _own_column(inner_expr, inner_alias, inner_schema)
            if column is None:
                continue
            if self._refs_only(outer_expr, left_aliases):
                return column, outer_expr
        return None

    def _refs_only(self, expr: ast.Expr, aliases: set) -> bool:
        if isinstance(expr, ast.ColumnRef):
            return expr.table in aliases
        if isinstance(expr, (ast.Literal, ast.Param)):
            return True
        if isinstance(expr, ast.BinaryOp):
            return self._refs_only(expr.left, aliases) and self._refs_only(
                expr.right, aliases
            )
        if isinstance(expr, ast.UnaryOp):
            return self._refs_only(expr.operand, aliases)
        return False

    def _index_for_equi(
        self, schema: TableSchema, columns: List[str]
    ) -> Optional[IndexDef]:
        available = set(columns)
        best: Optional[IndexDef] = None
        for index in schema.indexes:
            if set(index.columns) == available and (best is None or index.unique):
                best = index
        return best

    # -- aggregation --------------------------------------------------------------------

    def _aggregate(
        self,
        compile: _Compiler,
        group_by: List[ast.Expr],
        aggregates: List[ast.FuncCall],
        rows: List[Row],
    ) -> Tuple[List[Row], _Compiler]:
        """One row per group -- the group's first row (NULLs for the one
        group of an empty ungrouped input) followed by the aggregate
        values -- and the compiler that finds the values there."""
        width = compile.layout.width
        positions: Dict[str, int] = {}
        calls: List[Tuple[ast.FuncCall, Optional[RowFn]]] = []
        for call in aggregates:
            key = _aggregate_key(call)
            if key not in positions:
                positions[key] = width + len(calls)
                calls.append((call, None if call.star else compile(call.args[0])))
        if group_by:
            parts = [compile(expr) for expr in group_by]
            groups: Dict[Tuple, List[Row]] = {}
            for row in rows:
                key = tuple([_SortKey(part(row)) for part in parts])
                groups.setdefault(key, []).append(row)
            grouped = list(groups.values())
        else:
            grouped = [rows]
        out = [
            (members[0] if members else (None,) * width) + tuple([
                _compute_aggregate(call, argument, members)
                for call, argument in calls
            ])
            for members in grouped
        ]
        return out, _Compiler(compile.layout, self.params, positions)

    # -- projection ----------------------------------------------------------------------

    def _project(
        self, stmt: ast.Select, rows: List[Row], compile: _Compiler
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        columns: List[str] = []
        extractors: List[RowFn] = []
        for item in stmt.items:
            if item.expr is not None:
                columns.append(item.alias or _expr_label(item.expr))
                extractors.append(compile(item.expr))
                continue
            for alias, schema, offset in compile.layout.tables:
                if item.star or alias == item.table_star:
                    for position, column in enumerate(schema.columns, offset):
                        columns.append(column.name)
                        extractors.append(operator.itemgetter(position))
        projected = [
            tuple([extract(row) for extract in extractors]) for row in rows
        ]
        return columns, projected

    # -- EXPLAIN -----------------------------------------------------------------------

    def explain(self, stmt: ast.Statement) -> List[str]:
        """Describe the chosen plan without executing anything."""
        if isinstance(stmt, ast.Select):
            return self._explain_select(stmt)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            table = self.tables(stmt.table)
            ref = ast.TableRef(stmt.table, None)
            verb = "UPDATE" if isinstance(stmt, ast.Update) else "DELETE"
            return [f"{verb} {stmt.table}"] + [
                "  " + line
                for line in self._explain_access(ref, table.schema, stmt.where)
            ]
        if isinstance(stmt, ast.Insert):
            return [f"INSERT {len(stmt.rows)} row(s) into {stmt.table}"]
        return [f"{type(stmt).__name__}"]

    def _explain_select(self, stmt: ast.Select) -> List[str]:
        lines: List[str] = ["SELECT"]
        if stmt.table is not None:
            schema = self.tables(stmt.table.name).schema
            for line in self._explain_access(stmt.table, schema, stmt.where):
                lines.append("  " + line)
            left_aliases = {stmt.table.alias}
            for join in stmt.joins:
                strategy, index, equi, _residual = self._join_plan(
                    join, self.tables(join.table.name).schema, left_aliases
                )
                if strategy == "index":
                    how = f"index nested-loop join via {index.name}"
                elif strategy == "hash":
                    how = "hash join on " + ", ".join(c for c, _ in equi)
                else:
                    how = "nested-loop join"
                lines.append(
                    f"  {join.kind} join {join.table.name} "
                    f"[{join.table.alias}]: {how}"
                )
                left_aliases.add(join.table.alias)
        if stmt.where is not None:
            lines.append("  filter: residual WHERE")
        if stmt.group_by:
            lines.append(f"  group by {len(stmt.group_by)} expr(s)")
        if stmt.order_by:
            lines.append(f"  sort by {len(stmt.order_by)} key(s)")
        if stmt.limit is not None:
            lines.append(f"  limit {stmt.limit}")
        if stmt.for_update:
            lines.append("  lock rows (FOR UPDATE)")
        return lines

    def _explain_access(
        self,
        table_ref: ast.TableRef,
        schema: TableSchema,
        condition: Optional[ast.Expr],
    ) -> List[str]:
        kind, index, low, high, include_high, pushdown = self._access_path(
            table_ref, schema, condition
        )
        if kind == "lookup":
            return [
                f"scan {schema.name} [{table_ref.alias}]: "
                f"point lookup via {index.name} key={low!r}"
            ]
        if kind == "range":
            bound = "<=" if include_high else "<"
            return [
                f"scan {schema.name} [{table_ref.alias}]: "
                f"range via {index.name} {low!r} .. {bound} {high!r}"
            ]
        if pushdown is not None:
            return [
                f"scan {schema.name} [{table_ref.alias}]: full scan with "
                f"storage-side {pushdown!r}"
            ]
        return [f"scan {schema.name} [{table_ref.alias}]: full scan"]

    # -- INSERT / UPDATE / DELETE ----------------------------------------------------------

    def insert(self, stmt: ast.Insert) -> Generator:
        table: Table = self.tables(stmt.table)
        schema = table.schema
        columns = stmt.columns or schema.column_names
        count = 0
        if stmt.select is not None:
            source = yield from self.select(stmt.select)
            if source.rows and len(source.rows[0]) != len(columns):
                raise SqlPlanError(
                    f"INSERT into {stmt.table}: {len(columns)} columns but "
                    f"the SELECT produces {len(source.rows[0])}"
                )
            for source_row in source.rows:
                values = dict(zip(columns, source_row))
                yield from table.insert(values)
                count += 1
            return ResultSet([], [], count)
        compile = _Compiler(_Layout(), self.params)
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise SqlPlanError(
                    f"INSERT into {stmt.table}: {len(columns)} columns but "
                    f"{len(row_exprs)} values"
                )
            values = {
                column: compile(expr)(())
                for column, expr in zip(columns, row_exprs)
            }
            yield from table.insert(values)
            count += 1
        return ResultSet([], [], count)

    def _target_pairs(
        self, table: Table, table_name: str, condition: Optional[ast.Expr]
    ) -> Generator:
        """For UPDATE and DELETE: the compiler for the target table's rows
        and the ``[(rid, row)]`` their WHERE keeps."""
        ref = ast.TableRef(table_name, None)
        layout = _Layout()
        layout.add(ref.alias, table.schema)
        compile = _Compiler(layout, self.params)
        pairs = yield from self._base_pairs(table, ref, condition)
        if condition is not None:
            where = compile(condition)
            pairs = [pair for pair in pairs if where(pair[1]) is True]
        return compile, pairs

    def update(self, stmt: ast.Update) -> Generator:
        table: Table = self.tables(stmt.table)
        compile, pairs = yield from self._target_pairs(
            table, stmt.table, stmt.where
        )
        assignments = [
            (column, compile(expr)) for column, expr in stmt.assignments
        ]
        for rid, row in pairs:
            changes = {column: value(row) for column, value in assignments}
            yield from table.update_by_rid(rid, changes)
        return ResultSet([], [], len(pairs))

    def delete(self, stmt: ast.Delete) -> Generator:
        table: Table = self.tables(stmt.table)
        _compile, pairs = yield from self._target_pairs(
            table, stmt.table, stmt.where
        )
        for rid, _row in pairs:
            yield from table.delete_by_rid(rid)
        return ResultSet([], [], len(pairs))


def _expr_label(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        inner = "*" if expr.star else ",".join(
            _expr_label(arg) for arg in expr.args
        )
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    return "expr"


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

