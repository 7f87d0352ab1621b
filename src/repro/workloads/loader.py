"""Bulk loading of initial database populations.

Initial load bypasses the transaction path (population is setup, not
measurement): records are written with version number 0 -- visible to
every snapshot -- and indexes are built bottom-up in one pass.  The rid
counters are advanced past the loaded rows so processing nodes allocate
fresh rids afterwards.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Tuple

from repro import effects
from repro.core.record import VersionedRecord
from repro.core.spaces import DATA_SPACE, META_SPACE, data_key, rid_counter_key
from repro.sql.keyenc import EncodedKey, encode_key
from repro.sql.schema import Catalog
from repro.sql.table import IndexManager

LOAD_VERSION = 0  # version number <= every snapshot base: visible to all


class BulkLoader:
    """Loads whole tables and builds their indexes."""

    def __init__(self, catalog: Catalog, index_manager: IndexManager,
                 batch_size: int = 512):
        self.catalog = catalog
        self.indexes = index_manager
        self.batch_size = batch_size

    def load_table(
        self, table_name: str, payloads: Iterable[Tuple[Any, ...]]
    ) -> Generator:
        """Write the payload tuples (values in the table's column order,
        each of its column's storage class, as ``TableSchema.make_row``
        builds them) and (re)build every index of the table.

        Returns the number of rows loaded.  Rids are assigned sequentially
        from 1 in input order.  The records share one ``tids`` tuple, and
        the data keys and index entries share one list of rid ints.
        """
        schema = self.catalog.table(table_name)
        table_id = schema.table_id
        rows = list(payloads)
        rids = list(range(1, len(rows) + 1))
        records = VersionedRecord.initial_many(LOAD_VERSION, rows)
        size = self.batch_size
        for start in range(0, len(rows), size):
            yield effects.multi_put(
                DATA_SPACE,
                [data_key(table_id, rid) for rid in rids[start : start + size]],
                records[start : start + size],
            )
        # Advance the rid counter past the loaded rows.
        yield effects.Put(META_SPACE, rid_counter_key(table_id), len(rows))

        for index in schema.indexes:
            entries: List[EncodedKey] = sorted(
                encode_key(schema.index_key_of(index, payload)) + (rid,)
                for rid, payload in zip(rids, rows)
            )
            yield from self.indexes.tree(index).bulk_build(entries)
        return len(rows)
