"""Planning and execution of parsed SQL statements.

The executor follows the iterator model of the paper's query processor,
materialized stage by stage (OLTP result sets are small; OLAP scans ship
data to the query by construction).  Access-path selection is rule-based:

* a conjunction of equality predicates covering an index's full key ->
  index lookup;
* equality/range predicates on a prefix of an index key -> index range
  scan;
* otherwise -> full table scan through the storage layer's Scan.

Joins prefer an index nested-loop when the inner table has a usable index
on the join key, falling back to a hash join for equi-joins and to a
filtered nested loop otherwise.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import SqlPlanError
from repro.sql import ast_nodes as ast
from repro.sql.schema import IndexDef, TableSchema
from repro.sql.table import Table

AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}
SCALAR_FUNCTIONS = {"abs", "lower", "upper", "length", "round", "coalesce",
                    "substr"}

Row = Dict[str, Any]  # "alias.column" -> value (plus bare names when unique)


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
# Expression evaluation
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


def evaluate(expr: ast.Expr, row: Row, params: Sequence[Any]) -> Any:
    """Evaluate an expression against one row environment."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        try:
            return params[expr.index]
        except IndexError:
            raise SqlPlanError(
                f"statement has parameter ${expr.index} but only "
                f"{len(params)} values were bound"
            )
    if isinstance(expr, ast.ColumnRef):
        key = f"{expr.table}.{expr.name}" if expr.table else expr.name
        if key in row:
            return row[key]
        raise SqlPlanError(f"unknown column {key!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, row, params)
    if isinstance(expr, ast.UnaryOp):
        value = evaluate(expr.operand, row, params)
        if expr.op == "-":
            return None if value is None else -value
        if expr.op == "not":
            return None if value is None else not value
        raise SqlPlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.FuncCall):
        return _scalar_function(expr, row, params)
    if isinstance(expr, ast.InList):
        value = evaluate(expr.operand, row, params)
        if value is None:
            return None
        members = [evaluate(item, row, params) for item in expr.items]
        result = value in members
        return not result if expr.negated else result
    if isinstance(expr, ast.Between):
        value = evaluate(expr.operand, row, params)
        low = evaluate(expr.low, row, params)
        high = evaluate(expr.high, row, params)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if expr.negated else result
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, row, params)
        result = value is None
        return not result if expr.negated else result
    if isinstance(expr, ast.Like):
        value = evaluate(expr.operand, row, params)
        pattern = evaluate(expr.pattern, row, params)
        if value is None or pattern is None:
            return None
        result = bool(_like_to_regex(pattern).match(str(value)))
        return not result if expr.negated else result
    raise SqlPlanError(f"cannot evaluate {expr!r}")


def _binary(expr: ast.BinaryOp, row: Row, params: Sequence[Any]) -> Any:
    op = expr.op
    if op == "and":
        left = evaluate(expr.left, row, params)
        if left is False:
            return False
        right = evaluate(expr.right, row, params)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "or":
        left = evaluate(expr.left, row, params)
        if left is True:
            return True
        right = evaluate(expr.right, row, params)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate(expr.left, row, params)
    right = evaluate(expr.right, row, params)
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    raise SqlPlanError(f"unknown operator {op!r}")


def _scalar_function(expr: ast.FuncCall, row: Row, params: Sequence[Any]) -> Any:
    name = expr.name
    if name in AGGREGATE_FUNCTIONS:
        # Aggregates are computed by the grouping stage; during final
        # projection their results live in the row under a synthetic key.
        key = _aggregate_key(expr)
        if key in row:
            return row[key]
        raise SqlPlanError(f"aggregate {name} used outside GROUP BY context")
    args = [evaluate(arg, row, params) for arg in expr.args]
    if name == "abs":
        return None if args[0] is None else abs(args[0])
    if name == "lower":
        return None if args[0] is None else str(args[0]).lower()
    if name == "upper":
        return None if args[0] is None else str(args[0]).upper()
    if name == "length":
        return None if args[0] is None else len(str(args[0]))
    if name == "round":
        digits = int(args[1]) if len(args) > 1 else 0
        return None if args[0] is None else round(args[0], digits)
    if name == "coalesce":
        for value in args:
            if value is not None:
                return value
        return None
    if name == "substr":
        if args[0] is None:
            return None
        start = int(args[1]) - 1
        if len(args) > 2:
            return str(args[0])[start : start + int(args[2])]
        return str(args[0])[start:]
    raise SqlPlanError(f"unknown function {name!r}")


def _aggregate_key(call: ast.FuncCall) -> str:
    inner = "*" if call.star else repr(call.args[0]) if call.args else ""
    distinct = "distinct " if call.distinct else ""
    return f"__agg_{call.name}({distinct}{inner})"


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
        return True, evaluate(expr, {}, params)  # SqlPlanError when unbound
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

    # -- rows in/out of environments ---------------------------------------------

    def _env_from(
        self, alias: str, schema: TableSchema, rid: int, row: Tuple[Any, ...]
    ) -> Row:
        env: Row = {"__rid." + alias: rid}
        for column, value in zip(schema.columns, row):
            env[f"{alias}.{column.name}"] = value
        return env

    @staticmethod
    def _merge(left: Row, right: Row) -> Row:
        merged = dict(left)
        merged.update(right)
        return merged

    @staticmethod
    def _add_bare_names(rows: List[Row], scopes: List[Tuple[str, TableSchema]]) -> None:
        """Expose unambiguous bare column names alongside qualified ones."""
        counts: Dict[str, int] = {}
        for _alias, schema in scopes:
            for column in schema.columns:
                counts[column.name] = counts.get(column.name, 0) + 1
        singles = [
            (alias, column.name)
            for alias, schema in scopes
            for column in schema.columns
            if counts[column.name] == 1
        ]
        for row in rows:
            for alias, name in singles:
                row[name] = row[f"{alias}.{name}"]

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

    def _base_rows(
        self,
        table_ref: ast.TableRef,
        condition: Optional[ast.Expr],
    ) -> Generator:
        table: Table = self.tables(table_ref.name)
        schema = table.schema
        kind, index, low, high, include_high, pushdown = self._access_path(
            table_ref, schema, condition
        )
        if kind == "lookup":
            pairs = yield from table.lookup(index, low)
        elif kind == "range":
            pairs = yield from table.index_range(index, low, high, include_high)
        else:
            pairs = yield from table.scan(pushdown)
        return [
            self._env_from(table_ref.alias, schema, rid, row)
            for rid, row in pairs
        ]

    # -- SELECT --------------------------------------------------------------------------

    def _resolve_alias(self, stmt: ast.Select, expr: ast.Expr) -> ast.Expr:
        """ORDER BY / GROUP BY may reference select-item aliases."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in stmt.items:
                if item.alias == expr.name and item.expr is not None:
                    return item.expr
        return expr

    def select(self, stmt: ast.Select) -> Generator:
        scopes: List[Tuple[str, TableSchema]] = []
        rows: List[Row]
        if stmt.table is None:
            rows = [{}]
        else:
            schema = self.tables(stmt.table.name).schema
            scopes.append((stmt.table.alias, schema))
            rows = yield from self._base_rows(stmt.table, stmt.where)
            for join in stmt.joins:
                rows = yield from self._join(rows, scopes, join)
                scopes.append((join.table.alias, self.tables(join.table.name).schema))
        self._add_bare_names(rows, scopes)

        if stmt.where is not None:
            rows = [
                row for row in rows
                if evaluate(stmt.where, row, self.params) is True
            ]

        if stmt.for_update:
            if stmt.group_by or stmt.joins:
                raise SqlPlanError(
                    "FOR UPDATE requires a plain single-table SELECT"
                )
            yield from self._lock_rows(stmt, rows, scopes)

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
            rows = self._aggregate(group_by, rows, aggregates)
        if stmt.having is not None:
            rows = [
                row for row in rows
                if evaluate(stmt.having, row, self.params) is True
            ]

        if order_by:
            for expr, descending in reversed(order_by):
                rows.sort(
                    key=lambda row: _sort_key(evaluate(expr, row, self.params)),
                    reverse=descending,
                )

        columns, projected = self._project(stmt, rows, scopes)
        if stmt.distinct:
            seen = set()
            unique_rows = []
            for row in projected:
                marker = tuple(row)
                if marker not in seen:
                    seen.add(marker)
                    unique_rows.append(row)
            projected = unique_rows
        if stmt.limit is not None:
            projected = projected[: stmt.limit]
        return ResultSet(columns, projected, len(projected))

    def _lock_rows(
        self,
        stmt: ast.Select,
        rows: List[Row],
        scopes: List[Tuple[str, TableSchema]],
    ) -> Generator:
        """Materialize FOR UPDATE reads: concurrent writers conflict."""
        from repro.core.spaces import data_key

        if not scopes:
            return
        alias, schema = scopes[0]
        table: Table = self.tables(stmt.table.name)
        for row in rows:
            rid = row.get("__rid." + alias)
            if rid is not None:
                yield from table.txn.read_for_update(
                    data_key(schema.table_id, rid)
                )

    def _join(
        self,
        left_rows: List[Row],
        scopes: List[Tuple[str, TableSchema]],
        join: ast.Join,
    ) -> Generator:
        table: Table = self.tables(join.table.name)
        schema = table.schema
        alias = join.table.alias
        strategy, index, equi, residual = self._join_plan(
            join, schema, {scope_alias for scope_alias, _ in scopes}
        )
        if not left_rows:
            return []  # inner and left joins alike produce nothing
        out: List[Row] = []
        if strategy == "index":
            # Index nested-loop join.
            order = {column: position for position, column in enumerate(index.columns)}
            ordered = sorted(equi, key=lambda pair: order[pair[0]])
            for left in left_rows:
                key = tuple(
                    evaluate(expr, left, self.params) for _col, expr in ordered
                )
                if any(part is None for part in key):
                    matches = []  # NULL never equi-joins
                else:
                    matches = yield from table.lookup(index, key)
                matched = False
                for rid, row in matches:
                    candidate = self._merge(
                        left, self._env_from(alias, schema, rid, row)
                    )
                    if all(
                        evaluate(cond, candidate, self.params) is True
                        for cond in residual
                    ):
                        out.append(candidate)
                        matched = True
                if join.kind == "left" and not matched:
                    out.append(self._merge(left, self._null_env(alias, schema)))
            return out

        inner_pairs = yield from table.scan()
        inner_rows = [
            self._env_from(alias, schema, rid, row) for rid, row in inner_pairs
        ]
        if strategy != "loop" and join.kind == "inner":
            # Hash join on the equi columns.
            buckets: Dict[Tuple, List[Row]] = {}
            for inner in inner_rows:
                key = tuple(inner[f"{alias}.{column}"] for column, _ in equi)
                if any(part is None for part in key):
                    continue  # NULL never equi-joins
                buckets.setdefault(key, []).append(inner)
            for left in left_rows:
                key = tuple(
                    evaluate(expr, left, self.params) for _col, expr in equi
                )
                if any(part is None for part in key):
                    continue
                for inner in buckets.get(key, ()):  # noqa: B020
                    candidate = self._merge(left, inner)
                    if all(
                        evaluate(cond, candidate, self.params) is True
                        for cond in residual
                    ):
                        out.append(candidate)
            return out

        # Fallback: nested loop with full ON evaluation.
        for left in left_rows:
            matched = False
            for inner in inner_rows:
                candidate = self._merge(left, inner)
                if evaluate(join.on, candidate, self.params) is True:
                    out.append(candidate)
                    matched = True
            if join.kind == "left" and not matched:
                out.append(self._merge(left, self._null_env(alias, schema)))
        return out

    def _join_plan(
        self, join: ast.Join, schema: TableSchema, left_aliases: set
    ) -> Tuple[str, Optional[IndexDef], List[Tuple[str, ast.Expr]], List[ast.Expr]]:
        """The join decision, read by execution and EXPLAIN alike:
        ``(strategy, index, equi, residual)`` with strategy ``"index"``
        (nested-loop lookups through ``index``), ``"hash"`` or ``"loop"``.
        ``equi`` pairs are ``inner.column = <expr over the left scope>``;
        ``residual`` holds the other ON conjuncts."""
        equi: List[Tuple[str, ast.Expr]] = []
        residual: List[ast.Expr] = []
        for conjunct in _conjuncts(join.on):
            pair = self._equi_pair(conjunct, join.table.alias, schema, left_aliases)
            if pair is not None:
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

    def _null_env(self, alias: str, schema: TableSchema) -> Row:
        env: Row = {"__rid." + alias: None}
        for column in schema.columns:
            env[f"{alias}.{column.name}"] = None
        return env

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
            if all(column in available for column in index.columns) and set(
                index.columns
            ) == available:
                if best is None or index.unique:
                    best = index
        return best

    # -- aggregation --------------------------------------------------------------------

    def _aggregate(
        self,
        group_by: List[ast.Expr],
        rows: List[Row],
        aggregates: List[ast.FuncCall],
    ) -> List[Row]:
        groups: "Dict[Tuple, List[Row]]" = {}
        if group_by:
            for row in rows:
                key = tuple(
                    _sort_key(evaluate(expr, row, self.params))
                    for expr in group_by
                )
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows

        out: List[Row] = []
        for _key, members in groups.items():
            base: Row = dict(members[0]) if members else {}
            for call in aggregates:
                base[_aggregate_key(call)] = self._compute_aggregate(call, members)
            out.append(base)
        if not group_by and not out:
            empty: Row = {}
            for call in aggregates:
                empty[_aggregate_key(call)] = self._compute_aggregate(call, [])
            out.append(empty)
        return out

    def _compute_aggregate(self, call: ast.FuncCall, rows: List[Row]) -> Any:
        if call.star:
            return len(rows)
        values = [
            evaluate(call.args[0], row, self.params) for row in rows
        ]
        values = [value for value in values if value is not None]
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

    # -- projection ----------------------------------------------------------------------

    def _project(
        self,
        stmt: ast.Select,
        rows: List[Row],
        scopes: List[Tuple[str, TableSchema]],
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        columns: List[str] = []
        extractors = []
        for item in stmt.items:
            if item.star:
                for alias, schema in scopes:
                    for column in schema.columns:
                        columns.append(column.name)
                        extractors.append(_qualified_getter(alias, column.name))
            elif item.table_star is not None:
                target = item.table_star
                for alias, schema in scopes:
                    if alias == target:
                        for column in schema.columns:
                            columns.append(column.name)
                            extractors.append(_qualified_getter(alias, column.name))
            else:
                columns.append(item.alias or _expr_label(item.expr))
                expr = item.expr
                extractors.append(
                    lambda row, bound=expr: evaluate(bound, row, self.params)
                )
        projected = [
            tuple(extract(row) for extract in extractors) for row in rows
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
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise SqlPlanError(
                    f"INSERT into {stmt.table}: {len(columns)} columns but "
                    f"{len(row_exprs)} values"
                )
            values = {
                column: evaluate(expr, {}, self.params)
                for column, expr in zip(columns, row_exprs)
            }
            yield from table.insert(values)
            count += 1
        return ResultSet([], [], count)

    def update(self, stmt: ast.Update) -> Generator:
        table: Table = self.tables(stmt.table)
        ref = ast.TableRef(stmt.table, None)
        rows = yield from self._base_rows(ref, stmt.where)
        self._add_bare_names(rows, [(ref.alias, table.schema)])
        count = 0
        for row in rows:
            if stmt.where is not None and evaluate(
                stmt.where, row, self.params
            ) is not True:
                continue
            changes = {
                column: evaluate(expr, row, self.params)
                for column, expr in stmt.assignments
            }
            yield from table.update_by_rid(row["__rid." + ref.alias], changes)
            count += 1
        return ResultSet([], [], count)

    def delete(self, stmt: ast.Delete) -> Generator:
        table: Table = self.tables(stmt.table)
        ref = ast.TableRef(stmt.table, None)
        rows = yield from self._base_rows(ref, stmt.where)
        self._add_bare_names(rows, [(ref.alias, table.schema)])
        count = 0
        for row in rows:
            if stmt.where is not None and evaluate(
                stmt.where, row, self.params
            ) is not True:
                continue
            yield from table.delete_by_rid(row["__rid." + ref.alias])
            count += 1
        return ResultSet([], [], count)


def _qualified_getter(alias: str, name: str):
    key = f"{alias}.{name}"

    def get(row: Row) -> Any:
        return row.get(key)

    return get


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


def _sort_key(value: Any) -> _SortKey:
    return _SortKey(value)
