"""Recursive-descent parser for the SQL dialect.

Supported statements: CREATE TABLE / CREATE [UNIQUE] INDEX / DROP TABLE /
INSERT / SELECT (joins, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT) /
UPDATE / DELETE / BEGIN / COMMIT / ROLLBACK.
"""

from __future__ import annotations

import functools
from typing import Any, List, Optional, Tuple

from repro.errors import SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Token, tokenize


class Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.position = 0
        self._param_count = 0

    # -- token helpers ----------------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in words

    def _accept_keyword(self, *words: str) -> Optional[str]:
        if self._check_keyword(*words):
            return self._advance().value
        return None

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word}, found {self._peek().value!r}",
                self._peek().position,
            )

    def _check_symbol(self, symbol: str) -> bool:
        token = self._peek()
        return token.kind == "SYMBOL" and token.value == symbol

    def _accept_symbol(self, symbol: str) -> bool:
        if self._check_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, found {self._peek().value!r}",
                self._peek().position,
            )

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind == "IDENT":
            return self._advance().value
        # Permit non-reserved-looking keywords as identifiers where safe.
        raise SqlSyntaxError(
            f"expected identifier, found {token.value!r}", token.position
        )

    # -- entry point -----------------------------------------------------------------

    def parse(self) -> ast.Statement:
        statement = self._statement()
        self._accept_symbol(";")
        token = self._peek()
        if token.kind != "EOF":
            raise SqlSyntaxError(
                f"unexpected trailing input {token.value!r}", token.position
            )
        return statement

    def _statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            return self._select()
        if self._check_keyword("INSERT"):
            return self._insert()
        if self._check_keyword("UPDATE"):
            return self._update()
        if self._check_keyword("DELETE"):
            return self._delete()
        if self._check_keyword("CREATE"):
            return self._create()
        if self._check_keyword("DROP"):
            return self._drop()
        if self._accept_keyword("BEGIN"):
            return ast.BeginStmt()
        if self._accept_keyword("COMMIT"):
            return ast.CommitStmt()
        if self._accept_keyword("ROLLBACK", "ABORT"):
            return ast.RollbackStmt()
        token = self._peek()
        raise SqlSyntaxError(f"cannot parse {token.value!r}", token.position)

    # -- DDL --------------------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        unique = bool(self._accept_keyword("UNIQUE"))
        self._expect_keyword("INDEX")
        name = self._expect_ident()
        self._expect_keyword("ON")
        table = self._expect_ident()
        self._expect_symbol("(")
        columns = [self._expect_ident()]
        while self._accept_symbol(","):
            columns.append(self._expect_ident())
        self._expect_symbol(")")
        return ast.CreateIndex(name, table, columns, unique)

    def _create_table(self) -> ast.CreateTable:
        name = self._expect_ident()
        self._expect_symbol("(")
        columns: List[ast.ColumnClause] = []
        primary_key: List[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_symbol("(")
                primary_key.append(self._expect_ident())
                while self._accept_symbol(","):
                    primary_key.append(self._expect_ident())
                self._expect_symbol(")")
            else:
                column_name = self._expect_ident()
                type_name = self._type_name()
                nullable = True
                default: Any = None
                unique = False
                while True:
                    if self._accept_keyword("NOT"):
                        self._expect_keyword("NULL")
                        nullable = False
                    elif self._accept_keyword("DEFAULT"):
                        default = self._literal_value()
                    elif self._accept_keyword("PRIMARY"):
                        self._expect_keyword("KEY")
                        primary_key.append(column_name)
                        nullable = False
                    elif self._accept_keyword("UNIQUE"):
                        unique = True
                    else:
                        break
                columns.append(
                    ast.ColumnClause(column_name, type_name, nullable, default,
                                     unique)
                )
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        if not primary_key:
            raise SqlSyntaxError(f"table {name} needs a PRIMARY KEY")
        return ast.CreateTable(name, columns, primary_key)

    def _type_name(self) -> str:
        token = self._peek()
        if token.kind not in ("IDENT", "KEYWORD"):
            raise SqlSyntaxError(
                f"expected type name, found {token.value!r}", token.position
            )
        name = str(self._advance().value)
        if self._accept_symbol("("):  # VARCHAR(16), DECIMAL(12,2) ...
            while not self._accept_symbol(")"):
                self._advance()
        return name

    def _literal_value(self) -> Any:
        token = self._advance()
        if token.kind in ("NUMBER", "STRING"):
            return token.value
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return token.value == "TRUE"
        if token.kind == "KEYWORD" and token.value == "NULL":
            return None
        if token.kind == "SYMBOL" and token.value == "-":
            nested = self._literal_value()
            return -nested
        raise SqlSyntaxError(f"expected literal, found {token.value!r}",
                             token.position)

    def _drop(self) -> ast.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        return ast.DropTable(self._expect_ident())

    # -- DML --------------------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns: Optional[List[str]] = None
        if self._accept_symbol("("):
            columns = [self._expect_ident()]
            while self._accept_symbol(","):
                columns.append(self._expect_ident())
            self._expect_symbol(")")
        if self._check_keyword("SELECT"):
            return ast.Insert(table, columns, [], select=self._select())
        self._expect_keyword("VALUES")
        rows: List[List[ast.Expr]] = []
        while True:
            self._expect_symbol("(")
            row = [self._expression()]
            while self._accept_symbol(","):
                row.append(self._expression())
            self._expect_symbol(")")
            rows.append(row)
            if not self._accept_symbol(","):
                break
        return ast.Insert(table, columns, rows)

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, ast.Expr]] = []
        while True:
            column = self._expect_ident()
            self._expect_symbol("=")
            assignments.append((column, self._expression()))
            if not self._accept_symbol(","):
                break
        where = self._optional_where()
        return ast.Update(table, assignments, where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._optional_where()
        return ast.Delete(table, where)

    def _optional_where(self) -> Optional[ast.Expr]:
        if self._accept_keyword("WHERE"):
            return self._expression()
        return None

    # -- SELECT --------------------------------------------------------------------------

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())

        table: Optional[ast.TableRef] = None
        joins: List[ast.Join] = []
        if self._accept_keyword("FROM"):
            table = self._table_ref()
            while True:
                kind = None
                if self._accept_keyword("INNER"):
                    kind = "inner"
                    self._expect_keyword("JOIN")
                elif self._accept_keyword("LEFT"):
                    kind = "left"
                    self._expect_keyword("JOIN")
                elif self._accept_keyword("JOIN"):
                    kind = "inner"
                if kind is None:
                    break
                join_table = self._table_ref()
                self._expect_keyword("ON")
                joins.append(ast.Join(join_table, self._expression(), kind))

        where = self._optional_where()

        group_by: List[ast.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expression())
            while self._accept_symbol(","):
                group_by.append(self._expression())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._expression()

        order_by: List[Tuple[ast.Expr, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._expression()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                else:
                    self._accept_keyword("ASC")
                order_by.append((expr, descending))
                if not self._accept_symbol(","):
                    break

        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._advance()
            if token.kind != "NUMBER" or not isinstance(token.value, int):
                raise SqlSyntaxError("LIMIT expects an integer", token.position)
            limit = token.value

        for_update = False
        if self._accept_keyword("FOR"):
            self._expect_keyword("UPDATE")
            for_update = True

        return ast.Select(
            items, table, joins, where, group_by, having, order_by, limit,
            distinct, for_update,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._accept_symbol("*"):
            return ast.SelectItem(None, None, star=True)
        # t.* ?
        token = self._peek()
        if (
            token.kind == "IDENT"
            and self.tokens[self.position + 1].kind == "SYMBOL"
            and self.tokens[self.position + 1].value == "."
            and self.tokens[self.position + 2].kind == "SYMBOL"
            and self.tokens[self.position + 2].value == "*"
        ):
            table = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectItem(None, None, table_star=table)
        expr = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _table_ref(self) -> ast.TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return ast.TableRef(name, alias)

    # -- expressions (precedence climbing) ---------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "SYMBOL" and token.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self._advance().value
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, self._additive())
        negated = bool(self._accept_keyword("NOT"))
        if self._accept_keyword("IN"):
            self._expect_symbol("(")
            items = [self._expression()]
            while self._accept_symbol(","):
                items.append(self._expression())
            self._expect_symbol(")")
            return ast.InList(left, items, negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("LIKE"):
            return ast.Like(left, self._additive(), negated)
        if self._accept_keyword("IS"):
            inner_negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, inner_negated)
        if negated:
            raise SqlSyntaxError(
                "dangling NOT before non-predicate", token.position
            )
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            if self._accept_symbol("+"):
                left = ast.BinaryOp("+", left, self._multiplicative())
            elif self._accept_symbol("-"):
                left = ast.BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            if self._accept_symbol("*"):
                left = ast.BinaryOp("*", left, self._unary())
            elif self._accept_symbol("/"):
                left = ast.BinaryOp("/", left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._accept_symbol("-"):
            return ast.UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "NUMBER" or token.kind == "STRING":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "KEYWORD":
            if token.value in ("TRUE", "FALSE"):
                self._advance()
                return ast.Literal(token.value == "TRUE")
            if token.value == "NULL":
                self._advance()
                return ast.Literal(None)
            raise SqlSyntaxError(
                f"unexpected keyword {token.value!r} in expression",
                token.position,
            )
        if token.kind == "SYMBOL" and token.value == "?":
            self._advance()
            param = ast.Param(self._param_count)
            self._param_count += 1
            return param
        if token.kind == "SYMBOL" and token.value == "(":
            self._advance()
            expr = self._expression()
            self._expect_symbol(")")
            return expr
        if token.kind == "IDENT":
            name = self._advance().value
            if self._accept_symbol("("):  # function call
                if self._accept_symbol("*"):
                    self._expect_symbol(")")
                    return ast.FuncCall(name, [], star=True)
                distinct = bool(self._accept_keyword("DISTINCT"))
                args = []
                if not self._check_symbol(")"):
                    args.append(self._expression())
                    while self._accept_symbol(","):
                        args.append(self._expression())
                self._expect_symbol(")")
                return ast.FuncCall(name, args, distinct=distinct)
            if self._accept_symbol("."):
                column = self._expect_ident()
                return ast.ColumnRef(name, column)
            return ast.ColumnRef(None, name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )


@functools.lru_cache(maxsize=512)
def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement.

    Memoised by statement text (a session re-sends the same few texts with
    different parameters), so callers share one AST and must treat it as
    immutable; nothing that depends on the schema or the parameters is in
    it.  A text that fails to parse is not cached and fails again.
    """
    return Parser(sql).parse()
