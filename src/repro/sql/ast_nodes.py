"""AST node definitions for the SQL dialect."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


def _structural_repr(node: Any) -> str:
    """``Class(slot=value, ...)``: equal trees print equal (``parse``
    shares one tree per statement text; tests compare it across runs)."""
    fields = ", ".join(
        f"{name}={getattr(node, name)!r}" for name in node.__slots__
    )
    return f"{type(node).__name__}({fields})"


# -- expressions -------------------------------------------------------------


class Expr:
    __slots__ = ()
    __repr__ = _structural_repr


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Param(Expr):
    """A positional ``?`` placeholder."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Param({self.index})"


class ColumnRef(Expr):
    __slots__ = ("table", "name")

    def __init__(self, table: Optional[str], name: str):
        self.table = table.lower() if table else None
        self.name = name.lower()

    def __repr__(self) -> str:
        return f"Col({self.table}.{self.name})" if self.table else f"Col({self.name})"


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op  # "-" or "NOT"
        self.operand = operand


class FuncCall(Expr):
    __slots__ = ("name", "args", "star", "distinct")

    def __init__(self, name: str, args: Sequence[Expr], star: bool = False,
                 distinct: bool = False):
        self.name = name.lower()
        self.args = list(args)
        self.star = star
        self.distinct = distinct

    def __repr__(self) -> str:
        inner = "*" if self.star else ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


class InList(Expr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool):
        self.operand = operand
        self.items = list(items)
        self.negated = negated


class Between(Expr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool):
        self.operand = operand
        self.negated = negated


class Like(Expr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


# -- statements -------------------------------------------------------------


class Statement:
    __slots__ = ()
    __repr__ = _structural_repr


class ColumnClause:
    __slots__ = ("name", "type_name", "nullable", "default", "unique")
    __repr__ = _structural_repr

    def __init__(self, name: str, type_name: str, nullable: bool, default: Any,
                 unique: bool = False):
        self.name = name
        self.type_name = type_name
        self.nullable = nullable
        self.default = default
        self.unique = unique


class CreateTable(Statement):
    __slots__ = ("name", "columns", "primary_key")

    def __init__(self, name: str, columns: List[ColumnClause],
                 primary_key: List[str]):
        self.name = name
        self.columns = columns
        self.primary_key = primary_key


class CreateIndex(Statement):
    __slots__ = ("name", "table", "columns", "unique")

    def __init__(self, name: str, table: str, columns: List[str], unique: bool):
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique


class DropTable(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Insert(Statement):
    __slots__ = ("table", "columns", "rows", "select")

    def __init__(self, table: str, columns: Optional[List[str]],
                 rows: List[List[Expr]], select: Optional["Select"] = None):
        self.table = table
        self.columns = columns
        self.rows = rows          # VALUES form (empty when select is set)
        self.select = select      # INSERT INTO ... SELECT form


class TableRef:
    __slots__ = ("name", "alias")
    __repr__ = _structural_repr

    def __init__(self, name: str, alias: Optional[str]):
        self.name = name.lower()
        self.alias = (alias or name).lower()


class Join:
    __slots__ = ("table", "on", "kind")
    __repr__ = _structural_repr

    def __init__(self, table: TableRef, on: Expr, kind: str = "inner"):
        self.table = table
        self.on = on
        self.kind = kind


class SelectItem:
    __slots__ = ("expr", "alias", "star", "table_star")
    __repr__ = _structural_repr

    def __init__(self, expr: Optional[Expr], alias: Optional[str],
                 star: bool = False, table_star: Optional[str] = None):
        self.expr = expr
        self.alias = alias
        self.star = star
        self.table_star = table_star  # "t.*"


class Select(Statement):
    __slots__ = ("items", "table", "joins", "where", "group_by", "having",
                 "order_by", "limit", "distinct", "for_update")

    def __init__(
        self,
        items: List[SelectItem],
        table: Optional[TableRef],
        joins: List[Join],
        where: Optional[Expr],
        group_by: List[Expr],
        having: Optional[Expr],
        order_by: List[Tuple[Expr, bool]],  # (expr, descending)
        limit: Optional[int],
        distinct: bool = False,
        for_update: bool = False,
    ):
        self.items = items
        self.table = table
        self.joins = joins
        self.where = where
        self.group_by = group_by
        self.having = having
        self.order_by = order_by
        self.limit = limit
        self.distinct = distinct
        self.for_update = for_update


class Update(Statement):
    __slots__ = ("table", "assignments", "where")

    def __init__(self, table: str, assignments: List[Tuple[str, Expr]],
                 where: Optional[Expr]):
        self.table = table
        self.assignments = assignments
        self.where = where


class Delete(Statement):
    __slots__ = ("table", "where")

    def __init__(self, table: str, where: Optional[Expr]):
        self.table = table
        self.where = where


class BeginStmt(Statement):
    __slots__ = ()


class CommitStmt(Statement):
    __slots__ = ()


class RollbackStmt(Statement):
    __slots__ = ()
