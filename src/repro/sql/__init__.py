"""Relational layer: schema, SQL front end, and the executor.

Tell's processing nodes parse SQL, plan it against the catalog, and
execute it stage by stage over the row tuples fetched from the shared
store ("data is shipped to the query", Section 2.1).
"""

from repro.sql.types import ColumnType
from repro.sql.schema import Catalog, Column, IndexDef, TableSchema
from repro.sql.table import Table

__all__ = ["Catalog", "Column", "ColumnType", "IndexDef", "Table", "TableSchema"]
