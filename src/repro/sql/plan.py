"""The planner: what a statement decides, as a tree of frozen nodes.

``plan(stmt, table_provider, params)`` is the only place a decision is
made -- access path, join strategy, push-down filter, which clause becomes
which pipeline step -- and it is a pure function of the statement, the
catalog behind ``table_provider`` and the bound parameters.  The executor
interprets the tree; ``str(node)`` renders it, root first, and that text
is EXPLAIN.

Access is rule-based (:func:`choose_access_path`) and analysed once for
both kinds of table: ``own column <op> expression over the tables to its
left``.  A joined table is probed through the index whose key, or a
leading prefix of it, the equalities bind, else hashed (any other
equi-join) or looped (no equality); a base table is the join against the
one empty outer row, so its outer expressions fold to constants here.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlError, SqlPlanError
from repro.sql import ast_nodes as ast
from repro.sql.expr import AGGREGATE_FUNCTIONS, Compiler, Layout, aggregate_key
from repro.sql.schema import IndexDef, TableSchema
from repro.sql.table import Table

# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class Node:
    """One step of a plan; its fields are the subclass's ``__slots__``, in
    constructor order.  ``source`` is the node whose rows it consumes,
    ``table`` a bound :class:`Table` handle, ``layout`` where the columns
    of its output rows sit (stored by the nodes that add columns, the
    input's for the rest)."""

    __slots__ = ()
    source: Optional["Node"] = None

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are frozen")

    @property
    def layout(self) -> Layout:
        return self.source.layout

    def _target(self) -> str:
        """``table [alias]`` of the table this node reads."""
        alias, schema, _offset = self.layout.tables[-1]
        return f"{schema.name} [{alias}]"

    def __str__(self) -> str:
        if self.source is None:
            return self.describe()
        below = str(self.source).replace("\n", "\n  ")
        return f"{self.describe()}\n  {below}"


class OneRow(Node):
    """A SELECT without FROM computes over one empty row."""

    __slots__ = ()
    layout = Layout()

    def describe(self) -> str:
        return "one empty row"


class PointGet(Node):
    __slots__ = ("table", "layout", "index", "key")

    def describe(self) -> str:
        return f"scan {self._target()}: point lookup via {self.index.name} key={self.key!r}"


class IndexRange(Node):
    __slots__ = ("table", "layout", "index", "low", "high", "include_high")

    def describe(self) -> str:
        bound = "<=" if self.include_high else "<"
        return (f"scan {self._target()}: range via {self.index.name} "
                f"{self.low!r} .. {bound} {self.high!r}")


class Scan(Node):
    __slots__ = ("table", "layout", "pushdown")

    def describe(self) -> str:
        if self.pushdown is None:
            return f"scan {self._target()}: full scan"
        return f"scan {self._target()}: full scan with storage-side {self.pushdown!r}"


class NestedLoop(Node):
    """Per outer row: one probe of ``index`` with the outer ``keys`` (for
    its leading columns, in their order: a lookup when they are all of
    them, else the range sharing that prefix), or -- without an index --
    the scanned table; ``conditions`` decide which candidates join."""

    __slots__ = ("source", "table", "layout", "kind", "index", "keys", "conditions")

    def describe(self) -> str:
        if self.index is None:
            how = "nested-loop join"
        else:
            how = f"index nested-loop join via {self.index.name}"
            if len(self.keys) < len(self.index.columns):
                how += f" prefix ({', '.join(self.index.columns[:len(self.keys)])})"
        return f"{self.kind} join {self._target()}: {how}"


class HashJoin(Node):
    """Equi-join: ``columns`` of the scanned table against the outer
    ``keys``."""

    __slots__ = ("source", "table", "layout", "kind", "columns", "keys", "conditions")

    def describe(self) -> str:
        return f"{self.kind} join {self._target()}: hash join on " + ", ".join(self.columns)


class Filter(Node):
    __slots__ = ("source", "condition")

    def describe(self) -> str:
        return f"filter: {self.condition!r}"


class Lock(Node):
    """FOR UPDATE: the rows of ``table`` that reach it are read for update."""

    __slots__ = ("source", "table")

    def describe(self) -> str:
        return "lock rows (FOR UPDATE)"


class Aggregate(Node):
    """One row per group: the group's first row, then a value per call."""

    __slots__ = ("source", "layout", "group_by", "calls")

    def describe(self) -> str:
        head = f"group by {len(self.group_by)} expr(s): " if self.group_by else ""
        return f"{head}aggregate {', '.join(map(repr, self.calls))}".rstrip()


class Sort(Node):
    __slots__ = ("source", "keys")  # keys: (expression, descending)

    def describe(self) -> str:
        return f"sort by {len(self.keys)} key(s)"


class Project(Node):
    """``exprs`` are expressions, or row positions where a ``*`` expanded."""

    __slots__ = ("source", "columns", "exprs", "distinct")

    def describe(self) -> str:
        return f"project{' distinct' if self.distinct else ''} " + ", ".join(self.columns)


class Limit(Node):
    __slots__ = ("source", "count")

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.source.columns

    def describe(self) -> str:
        return f"limit {self.count}"


class Insert(Node):
    """``rows`` of VALUES expressions, or the rows of the ``source`` SELECT."""

    __slots__ = ("table", "columns", "rows", "source")

    def describe(self) -> str:
        name = self.table.schema.name
        if self.source is not None:
            return f"INSERT into {name} from"
        return f"INSERT {len(self.rows)} row(s) into {name}"


class Update(Node):
    __slots__ = ("source", "table", "assignments")

    def describe(self) -> str:
        columns = ", ".join(column for column, _expr in self.assignments)
        return f"UPDATE {self.table.schema.name}: set {columns}"


class Delete(Node):
    __slots__ = ("source", "table")

    def describe(self) -> str:
        return f"DELETE {self.table.schema.name}"


# ---------------------------------------------------------------------------
# Predicate analysis and the index chooser
# ---------------------------------------------------------------------------

_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


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


def _ranges_over(expr: ast.Expr, outer: Collection[str]) -> bool:
    """Whether ``expr`` can be evaluated on a row of the ``outer`` tables
    alone -- with none, on literals and parameters."""
    if isinstance(expr, ast.ColumnRef):
        return expr.table in outer
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.BinaryOp):
        return _ranges_over(expr.left, outer) and _ranges_over(expr.right, outer)
    if isinstance(expr, ast.UnaryOp):
        return _ranges_over(expr.operand, outer)
    return False


def _bindings(
    conjunct: ast.Expr, alias: str, schema: TableSchema, outer: Collection[str]
) -> List[Tuple[str, str, ast.Expr]]:
    """``(column, op, expr)`` for what ``conjunct`` says about a column of
    the table itself in terms of the ``outer`` tables."""
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIPPED:
        left, right = conjunct.left, conjunct.right
        column = _own_column(left, alias, schema)
        if column is not None and _ranges_over(right, outer):
            return [(column, conjunct.op, right)]
        column = _own_column(right, alias, schema)
        if column is not None and _ranges_over(left, outer):
            return [(column, _FLIPPED[conjunct.op], left)]
    elif isinstance(conjunct, ast.Between) and not conjunct.negated:
        column = _own_column(conjunct.operand, alias, schema)
        if (column is not None and _ranges_over(conjunct.low, outer)
                and _ranges_over(conjunct.high, outer)):
            return [(column, ">=", conjunct.low), (column, "<=", conjunct.high)]
    return []


def _analyze(
    condition: Optional[ast.Expr],
    alias: str,
    schema: TableSchema,
    outer: Collection[str],
    bound: Callable[[ast.Expr], Any],
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any], List[ast.Expr]]:
    """``(equals, lower, upper, residual)``: the table's ``column -> bound``
    equalities and ``column -> (op, bound)`` ranges in ``condition`` (the
    first of a kind on a column wins), and the conjuncts that bound no
    equality -- a join re-checks exactly those, a base table its whole
    WHERE.  ``bound`` makes an outer-side expression what the constraint
    holds: a join keeps the expression, a base table folds it."""
    equals: Dict[str, Any] = {}
    lower: Dict[str, Tuple[str, Any]] = {}
    upper: Dict[str, Tuple[str, Any]] = {}
    residual: List[ast.Expr] = []
    for conjunct in _conjuncts(condition):
        keyed = False
        for column, op, expr in _bindings(conjunct, alias, schema, outer):
            if op == "=" and column not in equals:
                equals[column] = bound(expr)
                keyed = True
            elif op[0] == ">" and column not in lower:
                lower[column] = (op, bound(expr))
            elif op[0] == "<" and column not in upper:
                upper[column] = (op, bound(expr))
        if not keyed:
            residual.append(conjunct)
    return equals, lower, upper, residual


def choose_access_path(
    schema: TableSchema, equals: Dict[str, Any], lower: Dict[str, Any],
    upper: Dict[str, Any],
) -> Tuple[str, Optional[IndexDef], Any, Any, bool]:
    """Pick (kind, index, low, high, include_high).

    kind is "lookup" (full-key equality), "range" (prefix constraints) or
    "scan".  Among lookup candidates the unique index wins; among range
    candidates the longest constrained prefix wins.
    """
    best_lookup: Optional[IndexDef] = None
    best_range: Tuple[int, Optional[IndexDef], int] = (0, None, 0)
    for index in schema.indexes:
        prefix = 0  # leading key columns bound by an equality
        for column in index.columns:
            if column not in equals:
                break
            prefix += 1
        if prefix == len(index.columns):
            if best_lookup is None or (index.unique and not best_lookup.unique):
                best_lookup = index
            continue
        next_column = index.columns[prefix]
        score = prefix * 2 + (next_column in lower or next_column in upper)
        if score > best_range[0]:
            best_range = (score, index, prefix)
    if best_lookup is not None:
        key = tuple(equals[column] for column in best_lookup.columns)
        return "lookup", best_lookup, key, None, False
    _score, index, prefix = best_range
    if index is not None:
        low = [equals[column] for column in index.columns[:prefix]]
        high = list(low)
        include_high = True
        next_column = index.columns[prefix]
        if next_column in lower:
            low.append(lower[next_column][1])  # exclusive lows over-approximate
        if next_column in upper:
            high.append(upper[next_column][1])
            include_high = upper[next_column][0] == "<="
        return "range", index, tuple(low) or None, tuple(high) or None, include_high
    return "scan", None, None, None, False


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def plan(stmt: ast.Statement, table_provider: Callable[[str], Table],
         params: Sequence[Any] = ()) -> Node:
    """The plan of one DML/query statement; ``table_provider(name)`` is
    called once per table reference and its handle stays in the tree."""
    if isinstance(stmt, ast.Select):
        return _select(stmt, table_provider, params)
    if isinstance(stmt, ast.Insert):
        return _insert(stmt, table_provider, params)
    if isinstance(stmt, (ast.Update, ast.Delete)):
        table = table_provider(stmt.table)
        rows = _access(ast.TableRef(stmt.table, None), table, stmt.where, params)
        if stmt.where is not None:
            rows = Filter(rows, stmt.where)
        if isinstance(stmt, ast.Delete):
            return Delete(rows, table)
        return Update(rows, table, tuple(stmt.assignments))
    raise SqlPlanError(f"unsupported statement {stmt!r}")


def _access(ref: ast.TableRef, table: Table, condition: Optional[ast.Expr],
            params: Sequence[Any]) -> Node:
    """The base-table access: a superset of the rows ``condition`` keeps."""
    schema = table.schema
    compile = Compiler(OneRow.layout, params)

    def fold(expr: ast.Expr) -> Any:
        try:
            return compile(expr)(())
        except SqlPlanError:
            raise
        except (TypeError, ArithmeticError, SqlError) as error:
            # e.g. a constant ``1 / 0``: rejected before any row is read
            raise SqlPlanError(f"cannot evaluate {expr!r}: {error}")

    equals, lower, upper, _residual = _analyze(condition, ref.alias, schema, (), fold)
    kind, index, low, high, include_high = choose_access_path(
        schema, equals, lower, upper
    )
    layout = Layout(((ref.alias, schema, 0),))
    if kind == "lookup":
        return PointGet(table, layout, index, low)
    if kind == "range":
        return IndexRange(table, layout, index, low, high, include_high)
    # Section 5.2 operator push-down: the storage nodes apply what the
    # analysis understood of the WHERE.
    pushed = [(column, "=", value) for column, value in equals.items()]
    pushed += [(column, *bound) for column, bound in [*lower.items(), *upper.items()]]
    return Scan(table, layout, table.make_filter(pushed) if pushed else None)


def _join(outer: Node, join: ast.Join, table: Table) -> Node:
    schema, alias = table.schema, join.table.alias
    layout = Layout(outer.layout.tables + ((alias, schema, outer.layout.width),))
    equals, lower, upper, residual = _analyze(
        join.on, alias, schema,
        {outer_alias for outer_alias, _schema, _offset in outer.layout.tables},
        lambda expr: expr,
    )
    index = choose_access_path(schema, equals, lower, upper)[1]
    # The leading index columns the equalities bind: all of them for the
    # chooser's "lookup", at least one for a "range" worth probing.
    probed = tuple(takewhile(equals.__contains__, index.columns)) if index else ()
    if probed:
        # Equalities on columns outside the probed prefix can only filter.
        leftover = [
            ast.BinaryOp("=", ast.ColumnRef(alias, column), expr)
            for column, expr in equals.items()
            if column not in probed
        ]
        return NestedLoop(outer, table, layout, join.kind, index,
                          tuple(equals[column] for column in probed),
                          tuple(leftover + residual))
    if equals:
        return HashJoin(outer, table, layout, join.kind, tuple(equals),
                        tuple(equals.values()), tuple(residual))
    return NestedLoop(outer, table, layout, join.kind, None, (), (join.on,))


def _select(stmt: ast.Select, tables: Callable[[str], Table],
            params: Sequence[Any]) -> Node:
    if stmt.for_update and (stmt.group_by or stmt.joins):
        raise SqlPlanError("FOR UPDATE requires a plain single-table SELECT")
    if stmt.table is None:
        node: Node = OneRow()
    else:
        base = tables(stmt.table.name)
        node = _access(stmt.table, base, stmt.where, params)
        for join in stmt.joins:
            node = _join(node, join, tables(join.table.name))
    if stmt.where is not None:
        node = Filter(node, stmt.where)
    if stmt.for_update and stmt.table is not None:
        node = Lock(node, base)

    def resolve_alias(expr: ast.Expr) -> ast.Expr:
        """ORDER BY / GROUP BY may reference select-item aliases."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in stmt.items:
                if item.alias == expr.name and item.expr is not None:
                    return item.expr
        return expr

    order_by = tuple((resolve_alias(expr), desc) for expr, desc in stmt.order_by)
    group_by = tuple(resolve_alias(expr) for expr in stmt.group_by)
    calls: Dict[str, ast.FuncCall] = {}
    for expr in filter(None, [item.expr for item in stmt.items] + [stmt.having] + [
            expr for expr, _descending in order_by]):
        _collect_aggregates(expr, calls)
    if group_by or calls:
        width = node.layout.width
        positions = {key: width + i for i, key in enumerate(calls)}
        node = Aggregate(node, Layout(node.layout.tables, positions), group_by,
                         tuple(calls.values()))
    if stmt.having is not None:
        node = Filter(node, stmt.having)
    if order_by:
        node = Sort(node, order_by)
    node = _project(stmt, node)
    if stmt.limit is not None:
        node = Limit(node, stmt.limit)
    return node


def _project(stmt: ast.Select, source: Node) -> Project:
    columns: List[str] = []
    exprs: List[Any] = []
    for item in stmt.items:
        if item.expr is not None:
            columns.append(item.alias or _expr_label(item.expr))
            exprs.append(item.expr)
            continue
        for alias, schema, offset in source.layout.tables:
            if item.star or alias == item.table_star:
                for position, column in enumerate(schema.columns, offset):
                    columns.append(column.name)
                    exprs.append(position)
    return Project(source, tuple(columns), tuple(exprs), stmt.distinct)


def _insert(stmt: ast.Insert, tables: Callable[[str], Table],
            params: Sequence[Any]) -> Insert:
    table = tables(stmt.table)
    columns = tuple(stmt.columns or table.schema.column_names)
    source = None if stmt.select is None else _select(stmt.select, tables, params)
    widths = {len(source.columns)} if source is not None else set(map(len, stmt.rows))
    if widths - {len(columns)}:
        raise SqlPlanError(
            f"INSERT into {stmt.table}: {len(columns)} columns but "
            f"{max(widths - {len(columns)})} values"
        )
    return Insert(table, columns, tuple(map(tuple, stmt.rows)), source)


def _collect_aggregates(expr: ast.Expr, out: Dict[str, ast.FuncCall]) -> None:
    """The distinct aggregate calls under ``expr``, by
    :func:`aggregate_key`, in first-seen order."""
    if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        out.setdefault(aggregate_key(expr), expr)
        return
    for slot in expr.__slots__:
        child = getattr(expr, slot)
        for part in child if isinstance(child, list) else (child,):
            if isinstance(part, ast.Expr):
                _collect_aggregates(part, out)


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
