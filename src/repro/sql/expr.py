"""Expression compilation: SQL expressions as closures over positional rows.

Every column reference becomes a position in the row tuple
(:class:`Layout`), every parameter its bound value, and the WHERE / ON /
SET / projection / aggregate / ORDER BY expressions closures over row
tuples (:class:`Compiler`).  The planner folds constants with it, the
executor compiles what a plan node carries; nothing is kept between
executions.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SqlError, SqlPlanError
from repro.sql import ast_nodes as ast
from repro.sql.schema import TableSchema

#: name -> fold of the non-NULL argument values (never empty); COUNT only
#: counts them.
AGGREGATE_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}

#: The FROM tables' stored row tuples side by side (see :class:`Layout`).
Row = Tuple[Any, ...]
RowFn = Callable[[Row], Any]

def _like_to_regex(pattern: str) -> "re.Pattern":
    # re.escape leaves the two LIKE wildcards alone
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.IGNORECASE)


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


def _divide(a: Any, b: Any) -> Any:
    # SQL's data exception 22012, as in PostgreSQL (sqlite3 yields NULL)
    if b == 0:
        raise SqlError("division by zero")
    return a / b


#: Operators that yield NULL when an operand is NULL.
_BINARY_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": _divide,
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


class Layout:
    """Where each FROM-clause column sits in a positional row.

    A row is the tables' stored row tuples concatenated in FROM order, so
    a single-table statement runs on the stored tuples themselves and a
    join builds a new tuple only for a row it emits.  Immutable: a join
    and a grouping each describe their output rows with a new layout.
    """

    __slots__ = ("tables", "width", "aggregates")

    def __init__(self, tables: Tuple[Tuple[str, TableSchema, int], ...] = (),
                 aggregates: Optional[Dict[str, int]] = None):
        #: (alias, schema, position of the table's first column)
        self.tables = tables
        self.width = sum(len(schema.columns) for _alias, schema, _offset in tables)
        #: After grouping: aggregate call (by :func:`aggregate_key`) ->
        #: position of its value, behind the group's first row.
        self.aggregates = aggregates

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


class Compiler:
    """Turns an expression into a closure over the rows ``layout``
    describes: columns become positions, parameters their bound values
    and -- after grouping -- aggregate calls the positions of their
    values."""

    def __init__(self, layout: Layout, params: Sequence[Any]):
        self.layout = layout
        self.params = params

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
            position = (self.layout.aggregates or {}).get(aggregate_key(expr))
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


def aggregate_key(call: ast.FuncCall) -> str:
    inner = "*" if call.star else repr(call.args[0]) if call.args else ""
    distinct = "distinct " if call.distinct else ""
    return f"__agg_{call.name}({distinct}{inner})"

