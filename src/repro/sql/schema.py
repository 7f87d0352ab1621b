"""Schema objects and the shared catalog.

The catalog (table and index definitions) lives in the storage system
(``meta`` space, one cell) so that every processing node sees the same
schema -- the schema is data like everything else in a shared-data
architecture.  DDL installs a new catalog version with a conditional
write; concurrent DDL therefore conflicts instead of corrupting.
"""

from __future__ import annotations

import copy
from operator import itemgetter
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import effects
from repro.core.spaces import CATALOG_KEY, META_SPACE
from repro.errors import ConflictError, SchemaError
from repro.sql.types import ColumnType, coerce


#: The class ``coerce`` stores a column type's values as (float for
#: FLOAT, DECIMAL and TIMESTAMP).
_STORAGE_CLASS = {ColumnType.INT: int, ColumnType.BIGINT: int,
                  ColumnType.TEXT: str, ColumnType.BOOL: bool}


class Column:
    """One column definition."""

    __slots__ = ("name", "type", "nullable", "default")

    def __init__(
        self,
        name: str,
        column_type: ColumnType,
        nullable: bool = True,
        default: Any = None,
    ):
        self.name = name.lower()
        self.type = column_type
        self.nullable = nullable
        self.default = default

    def __repr__(self) -> str:
        return f"Column({self.name}, {self.type.value})"


class IndexDef:
    """A (possibly unique) index over one or more columns."""

    __slots__ = ("index_id", "name", "table_name", "columns", "unique")

    def __init__(
        self,
        index_id: int,
        name: str,
        table_name: str,
        columns: Sequence[str],
        unique: bool = False,
    ):
        self.index_id = index_id
        self.name = name.lower()
        self.table_name = table_name.lower()
        self.columns = tuple(column.lower() for column in columns)
        self.unique = unique

    def __repr__(self) -> str:
        kind = "unique index" if self.unique else "index"
        return f"<{kind} {self.name} on {self.table_name}{self.columns}>"


class TableSchema:
    """One table: columns, primary key, attached indexes."""

    def __init__(
        self,
        table_id: int,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
    ):
        self.table_id = table_id
        self.name = name.lower()
        self.columns = list(columns)
        self.primary_key = tuple(column.lower() for column in primary_key)
        self._positions: Dict[str, int] = {
            column.name: position for position, column in enumerate(self.columns)
        }
        if len(self._positions) != len(self.columns):
            raise SchemaError(f"table {name}: duplicate column names")
        for key_column in self.primary_key:
            if key_column not in self._positions:
                raise SchemaError(
                    f"table {name}: primary key column {key_column!r} undefined"
                )
        self._pk_positions: Tuple[int, ...] = tuple(
            self._positions[name] for name in self.primary_key
        )
        # make_row's plan, per column: (name, storage class, column);
        # ``coerce`` is the identity on values of exactly that class.
        self._row_plan: List[Tuple[str, type, Column]] = [
            (column.name, _STORAGE_CLASS.get(column.type, float), column)
            for column in self.columns
        ]
        # index name -> column positions / index_values, filled lazily
        self._index_positions: Dict[str, Tuple[int, ...]] = {}
        self._index_values: Dict[str, Tuple[Callable[[Tuple[Any, ...]], Any], bool]] = {}
        self.indexes: List[IndexDef] = []

    # -- column access ---------------------------------------------------------

    def position(self, column_name: str) -> int:
        try:
            return self._positions[column_name.lower()]
        except KeyError:
            raise SchemaError(f"table {self.name}: no column {column_name!r}")

    def has_column(self, column_name: str) -> bool:
        return column_name.lower() in self._positions

    def column(self, column_name: str) -> Column:
        return self.columns[self.position(column_name)]

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    # -- rows --------------------------------------------------------------------

    def make_row(self, values: Dict[str, Any]) -> Tuple[Any, ...]:
        """Build a storage payload tuple from a column->value mapping,
        applying defaults, NOT NULL checks, and type coercion."""
        positions = self._positions
        # Callers overwhelmingly pass already-lowercased column names, in
        # which case ``values`` can be used directly without rebuilding it.
        for name in values:
            if name not in positions:
                provided = {name.lower(): value for name, value in values.items()}
                for lowered in provided:
                    if lowered not in positions:
                        raise SchemaError(
                            f"table {self.name}: no column {lowered!r}"
                        )
                break
        else:
            provided = values
        row: List[Any] = []
        append = row.append
        for name, storage_class, column in self._row_plan:
            if name in provided:
                value = provided[name]
                if value.__class__ is not storage_class:
                    value = coerce(value, column.type, name)
            else:
                value = column.default
            if value is None and not column.nullable:
                raise SchemaError(
                    f"table {self.name}: column {name} is NOT NULL"
                )
            append(value)
        return tuple(row)

    def row_to_dict(self, row: Tuple[Any, ...]) -> Dict[str, Any]:
        return {column.name: value for column, value in zip(self.columns, row)}

    def key_of(self, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Primary-key tuple of a payload row."""
        return tuple([row[position] for position in self._pk_positions])

    def index_key_of(self, index: IndexDef, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        # The cache lookup is inlined: this runs for every row read.
        positions = self._index_positions.get(index.name)
        if positions is None:
            positions = tuple(self._positions[name] for name in index.columns)
            self._index_positions[index.name] = positions
        return tuple([row[position] for position in positions])

    def index_values(
        self, index: IndexDef
    ) -> Tuple[Callable[[Tuple[Any, ...]], Any], bool]:
        """``(values_of, plain)``: ``values_of(row)`` is the row's values
        of ``index``'s columns -- a tuple, or the one value of a
        one-column index -- and ``plain`` says none of them can be NULL
        or a bool (every column is NOT NULL and not BOOL)."""
        probe = self._index_values.get(index.name)
        if probe is None:
            columns = [self.column(name) for name in index.columns]
            probe = (
                itemgetter(*[self._positions[column.name] for column in columns]),
                not any(column.nullable or column.type is ColumnType.BOOL
                        for column in columns),
            )
            self._index_values[index.name] = probe
        return probe

    @property
    def primary_index(self) -> IndexDef:
        for index in self.indexes:
            if index.columns == self.primary_key and index.unique:
                return index
        raise SchemaError(f"table {self.name}: primary index missing")

    def __repr__(self) -> str:
        return f"<TableSchema {self.name}#{self.table_id} {len(self.columns)} cols>"


class Catalog:
    """All schema state; persisted as one cell in the meta space."""

    def __init__(self) -> None:
        self.tables: Dict[str, TableSchema] = {}
        self.indexes: Dict[str, IndexDef] = {}
        self.next_table_id = 1
        self.next_index_id = 1

    # -- DDL ------------------------------------------------------------------

    def define_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
    ) -> TableSchema:
        lowered = name.lower()
        if lowered in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        schema = TableSchema(self.next_table_id, lowered, columns, primary_key)
        self.next_table_id += 1
        self.tables[lowered] = schema
        # The primary key is always backed by a unique index.
        self.define_index(f"{lowered}_pk", lowered, primary_key, unique=True)
        return schema

    def define_index(
        self,
        name: str,
        table_name: str,
        columns: Sequence[str],
        unique: bool = False,
    ) -> IndexDef:
        lowered = name.lower()
        if lowered in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        schema = self.table(table_name)
        for column in columns:
            schema.position(column)  # validates existence
        index = IndexDef(self.next_index_id, lowered, table_name, columns, unique)
        self.next_index_id += 1
        self.indexes[lowered] = index
        schema.indexes.append(index)
        return index

    def drop_table(self, name: str) -> TableSchema:
        lowered = name.lower()
        schema = self.table(lowered)
        del self.tables[lowered]
        for index in schema.indexes:
            self.indexes.pop(index.name, None)
        return schema

    # -- lookup -----------------------------------------------------------------

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}")

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    # -- persistence ---------------------------------------------------------------

    def save(self) -> Generator:
        """Persist the catalog unconditionally (bootstrap path)."""
        yield effects.Put(META_SPACE, CATALOG_KEY, self)

    def save_if_version(self, expected_version: int) -> Generator:
        """Conditional persist: concurrent DDL conflicts instead of racing."""
        ok, version = yield effects.PutIfVersion(
            META_SPACE, CATALOG_KEY, self, expected_version
        )
        if not ok:
            raise ConflictError("catalog changed concurrently; retry DDL")
        return version

    @staticmethod
    def load(cached: Optional["Catalog"] = None, cached_version: int = 0) -> Generator:
        """Fetch the shared catalog; returns (catalog, cell_version) --
        ``cached`` itself while the cell is still at ``cached_version``.

        The catalog is deep-copied so that a PN mutating its local copy
        (during DDL, before the conditional write) cannot alias the stored
        object -- values in the store are immutable by convention.
        """
        value, version = yield effects.Get(META_SPACE, CATALOG_KEY)
        if value is None:
            return Catalog(), 0
        if cached is not None and version == cached_version:
            return cached, version
        return copy.deepcopy(value), version

    def approx_size(self) -> int:
        return 256 + 128 * len(self.tables) + 64 * len(self.indexes)
