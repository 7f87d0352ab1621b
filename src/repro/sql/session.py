"""Sessions: the SQL entry point bound to one processing node.

A session owns (at most) one open transaction and executes SQL statements
through the parser/executor.  Without an explicit BEGIN, every statement
runs in its own auto-committed transaction -- including multi-row
INSERTs, which commit atomically.

DDL is executed against the shared catalog with a conditional write, so
concurrent DDL from two processing nodes conflicts cleanly.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence

from repro import effects
from repro.core.processing_node import ProcessingNode
from repro.core.spaces import DATA_SPACE
from repro.core.transaction import Transaction
from repro.dispatch import Dispatcher
from repro.errors import InvalidState, SqlPlanError, TellError
from repro.sql import ast_nodes as ast
from repro.sql.executor import ResultSet, StatementExecutor
from repro.sql.keyenc import encode_key
from repro.sql.parser import parse
from repro.sql.plan import plan
from repro.sql.schema import Catalog, Column, IndexDef, TableSchema
from repro.sql.table import IndexManager, Table
from repro.sql.types import ColumnType


class Session:
    """One client connection to a processing node."""

    def __init__(self, pn: ProcessingNode, dispatcher: Dispatcher,
                 index_manager: Optional[IndexManager] = None):
        self.pn = pn
        self.dispatcher = dispatcher
        self.indexes = index_manager if index_manager is not None else IndexManager()
        self._catalog: Optional[Catalog] = None
        self._catalog_version = 0
        self._txn: Optional[Transaction] = None
        self._closed = False

    def _run(self, generator: Generator) -> Any:
        return effects.run_direct(generator, self.dispatcher)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """End the session, rolling back any open transaction.

        Idempotent; further SQL on the session raises :class:`InvalidState`.
        """
        if self._closed:
            return
        self._closed = True
        if self._txn is not None:
            with contextlib.suppress(TellError):
                self.rollback()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- catalog -----------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        if self._catalog is None:
            self.refresh_catalog()
        return self._catalog

    def refresh_catalog(self) -> None:
        """Bring the cached catalog up to the shared one.  Every transaction
        starts with this (one read of the catalog cell), so no statement
        plans or maintains indexes against a schema another session has
        since changed."""
        self._catalog, self._catalog_version = self._run(
            Catalog.load(self._catalog, self._catalog_version)
        )

    # -- transactions ---------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> Transaction:
        if self._closed:
            raise InvalidState("session is closed")
        if self._txn is not None:
            raise InvalidState("a transaction is already open on this session")
        self.refresh_catalog()
        self._txn = self._run(self.pn.begin())
        return self._txn

    def commit(self) -> None:
        if self._txn is None:
            raise InvalidState("no open transaction")
        txn, self._txn = self._txn, None
        self._run(txn.commit())

    def rollback(self) -> None:
        if self._txn is None:
            raise InvalidState("no open transaction")
        txn, self._txn = self._txn, None
        self._run(txn.abort())

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Scope a transaction: commit on clean exit, rollback on error.

        The body may also end the transaction itself (explicit
        ``COMMIT``/``ROLLBACK`` or :meth:`commit`/:meth:`rollback`); the
        exit step is then a no-op.  Exceptions propagate unmasked after
        the rollback.
        """
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if self._txn is txn:
                with contextlib.suppress(TellError):  # it may have aborted itself
                    self.rollback()
            raise
        if self._txn is txn:
            self.commit()

    @contextlib.contextmanager
    def _autocommit(self) -> Iterator[Transaction]:
        """The open transaction, or one that ends with the block."""
        if self._txn is not None:
            yield self._txn
        else:
            with self.transaction() as txn:
                yield txn

    # -- SQL ---------------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse and execute one SQL statement."""
        if self._closed:
            raise InvalidState("session is closed")
        statement = parse(sql)
        control = {ast.BeginStmt: self.begin, ast.CommitStmt: self.commit,
                   ast.RollbackStmt: self.rollback}.get(type(statement))
        if control is not None:
            control()
            return ResultSet([], [], 0)
        if isinstance(statement, (ast.CreateTable, ast.CreateIndex, ast.DropTable)):
            if self._txn is not None:
                raise InvalidState("DDL cannot run inside a transaction")
            return self._execute_ddl(statement)
        return self._execute_dml(statement, params)

    def query(self, sql: str, params: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        """Convenience: execute and return rows as dicts."""
        return self.execute(sql, params).dicts()

    def executemany(
        self, sql: str, parameter_sets: Sequence[Sequence[Any]]
    ) -> int:
        """Execute one parameterized statement per parameter set inside a
        single transaction; returns the total rowcount."""
        with self._autocommit():
            return sum(
                self.execute(sql, params).rowcount for params in parameter_sets
            )

    def explain(self, sql: str, params: Sequence[Any] = ()) -> List[str]:
        """The plan :meth:`execute` would run now (no execution)."""
        if self._txn is None:
            self.refresh_catalog()  # as the statement's own transaction would
        return str(plan(parse(sql), self._tables(None), params)).splitlines()

    # -- table handles for power users --------------------------------------------------

    def table(self, name: str) -> Table:
        """Record-level handle bound to the session's open transaction."""
        if self._txn is None:
            raise InvalidState("open a transaction before using table handles")
        return Table(self.catalog.table(name), self._txn, self.indexes)

    # -- internals -----------------------------------------------------------------------

    def _tables(self, txn: Optional[Transaction]) -> Callable[[str], Table]:
        """Table handles bound to ``txn`` (none is needed to plan)."""
        return lambda name: Table(self.catalog.table(name), txn, self.indexes)

    def _execute_dml(
        self, statement: ast.Statement, params: Sequence[Any]
    ) -> ResultSet:
        with self._autocommit() as txn:
            executor = StatementExecutor(self._tables(txn), params)
            return self._run(executor.execute(statement))

    def _execute_ddl(self, statement: ast.Statement) -> ResultSet:
        # A private copy: a statement that fails half-way must not leave
        # its definitions in the session's cached catalog.
        catalog, version = self._run(Catalog.load())
        if isinstance(statement, ast.CreateTable):
            columns = [
                Column(
                    clause.name,
                    ColumnType.from_sql(clause.type_name),
                    nullable=clause.nullable,
                    default=clause.default,
                )
                for clause in statement.columns
            ]
            schema = catalog.define_table(
                statement.name, columns, statement.primary_key
            )
            unique_indexes = [
                catalog.define_index(
                    f"{schema.name}_{clause.name}_unique", schema.name,
                    [clause.name], unique=True,
                )
                for clause in statement.columns
                if clause.unique and [clause.name] != list(schema.primary_key)
            ]
            self._run(catalog.save_if_version(version))
            self._run(self.indexes.create_storage(schema.primary_index))
            for index in unique_indexes:
                self._run(self.indexes.create_storage(index))
        elif isinstance(statement, ast.CreateIndex):
            index = catalog.define_index(
                statement.name, statement.table, statement.columns,
                unique=statement.unique,
            )
            self._run(catalog.save_if_version(version))
            self._run(self.indexes.create_storage(index))
            self._backfill_index(catalog.table(statement.table), index)
        elif isinstance(statement, ast.DropTable):
            schema = catalog.drop_table(statement.name)
            self._run(catalog.save_if_version(version))
            self._run(_purge_table_data(schema))
        else:
            raise SqlPlanError(f"unsupported DDL {statement!r}")
        self.refresh_catalog()
        return ResultSet([], [], 0)

    def _backfill_index(self, schema: TableSchema, index: IndexDef) -> None:
        """Populate a freshly created index from existing rows."""
        # A failed backfill (e.g. DuplicateKey under a unique index) must
        # not leak an open transaction: an abandoned tid would hold the
        # lowest-active-version down and block GC forever.
        with self.transaction() as txn:
            table = Table(schema, txn, self.indexes)
            rows = self._run(table.scan())
            tree = self.indexes.tree(index)
            unique = table.unique_check(index)
            for rid, row in rows:
                key = encode_key(schema.index_key_of(index, row))
                self._run(tree.insert(key, rid, unique=unique))


def _purge_table_data(schema: TableSchema) -> Generator:
    """Remove a dropped table's record cells from the store."""
    rows = yield effects.Scan(DATA_SPACE, (schema.table_id,), (schema.table_id + 1,))
    for key, _record, _cell_version in rows:
        yield effects.Delete(DATA_SPACE, key)
