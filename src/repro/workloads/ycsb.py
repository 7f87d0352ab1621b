"""A YCSB-style key-value workload.

The shared-data architecture's pitch is scaling *without workload
assumptions* (Section 2.1).  TPC-C is partition-friendly by design; this
workload is the opposite extreme: a single flat table of records accessed
by zipfian-distributed keys with configurable read/update/insert/scan
mixes -- the standard YCSB core workloads:

* A: 50% read / 50% update       (update heavy)
* B: 95% read / 5% update        (read mostly)
* C: 100% read
* D: 95% read / 5% insert        (read latest)
* E: 95% short range scans / 5% insert
* F: 50% read / 50% read-modify-write

Keys have no locality structure at all, so a partitioned database would
see pure-random cross-partition traffic -- for Tell it makes no
difference, which is precisely the point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, Iterator, Optional, Tuple

from repro.core.transaction import Transaction
from repro.sql.schema import Catalog, Column
from repro.sql.table import IndexManager, Table
from repro.sql.types import ColumnType
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.population import _text

FIELD_COUNT = 4
FIELD_LENGTH = 24


@dataclass(frozen=True)
class YcsbMix:
    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    read_modify_write: float = 0.0

    def pick(self, rng: random.Random) -> str:
        roll = rng.random()
        for op, weight in (
            ("read", self.read),
            ("update", self.update),
            ("insert", self.insert),
            ("scan", self.scan),
            ("read_modify_write", self.read_modify_write),
        ):
            roll -= weight
            if roll <= 0:
                return op
        return "read"


WORKLOAD_A = YcsbMix("A", read=0.5, update=0.5)
WORKLOAD_B = YcsbMix("B", read=0.95, update=0.05)
WORKLOAD_C = YcsbMix("C", read=1.0)
WORKLOAD_D = YcsbMix("D", read=0.95, insert=0.05)
WORKLOAD_E = YcsbMix("E", scan=0.95, insert=0.05)
WORKLOAD_F = YcsbMix("F", read=0.5, read_modify_write=0.5)

WORKLOADS = {mix.name: mix for mix in (
    WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D, WORKLOAD_E, WORKLOAD_F,
)}


@lru_cache(maxsize=None)
def _zeta(upto: int, theta: float) -> float:
    """The sum of ``1 / i**theta`` for i in 1..upto: the same float for
    every generator over ``upto`` keys, so it is summed once."""
    return sum(1.0 / (i ** theta) for i in range(1, upto + 1))


class ZipfianGenerator:
    """Approximate zipfian key chooser (Gray et al. rejection-free form)."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1):
        if n < 1:
            raise ValueError("need at least one key")
        self.n = n
        self.theta = theta
        self.rng = random.Random(seed)
        self._zetan = _zeta(n, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta))
            / (1.0 - _zeta(2, theta) / self._zetan)
        ) if n >= 2 else 0.0

    def next(self) -> int:
        """A key in [0, n): rank 0 is the hottest."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1.0) ** self._alpha)) % self.n


def build_ycsb_catalog(catalog: Optional[Catalog] = None) -> Catalog:
    if catalog is None:
        catalog = Catalog()
    catalog.define_table(
        "usertable",
        [Column("ycsb_key", ColumnType.INT, nullable=False)]
        + [Column(f"field{i}", ColumnType.TEXT) for i in range(FIELD_COUNT)],
        ["ycsb_key"],
    )
    return catalog


def _value(rng: random.Random) -> str:
    return _text(rng, FIELD_LENGTH)


def ycsb_rows(record_count: int, seed: int = 3) -> Iterator[Tuple[Any, ...]]:
    """The usertable's payload tuples, in column order."""
    rng = random.Random(seed)
    for key in range(record_count):
        # ycsb_key, then field0 .. field{FIELD_COUNT - 1}
        yield (key, *[_value(rng) for _ in range(FIELD_COUNT)])


def populate_ycsb(
    loader: BulkLoader, record_count: int, seed: int = 3
) -> Generator:
    """Bulk-load the usertable; returns the row count."""
    count = yield from loader.load_table(
        "usertable", ycsb_rows(record_count, seed)
    )
    return count


class YcsbClient:
    """Generates and executes YCSB operations inside transactions."""

    def __init__(
        self,
        catalog: Catalog,
        indexes: IndexManager,
        record_count: int,
        mix: YcsbMix,
        theta: float = 0.99,
        scan_length: int = 20,
        seed: int = 1,
    ):
        self.catalog = catalog
        self.indexes = indexes
        self.mix = mix
        self.scan_length = scan_length
        self.rng = random.Random(seed)
        self.zipf = ZipfianGenerator(record_count, theta, seed ^ 0xBEEF)
        self._insert_cursor = record_count
        self._insert_stride = 10_000  # spread inserts across clients
        self._insert_offset = seed % self._insert_stride

    def next_operation(self) -> Tuple[str, Dict[str, Any]]:
        op = self.mix.pick(self.rng)
        if op in ("read", "update", "read_modify_write"):
            return op, {"key": self.zipf.next()}
        if op == "scan":
            return op, {
                "key": self.zipf.next(),
                "length": self.rng.randint(1, self.scan_length),
            }
        next_key = self._insert_cursor * self._insert_stride + self._insert_offset
        self._insert_cursor += 1
        return "insert", {"key": next_key}

    def execute(self, txn: Transaction, op: str, args: Dict[str, Any]) -> Generator:
        table = Table(self.catalog.table("usertable"), txn, self.indexes)
        if op == "read":
            return (yield from table.get((args["key"],)))
        if op == "update":
            found = yield from table.get((args["key"],))
            if found is None:
                return None
            rid, _row = found
            field = f"field{self.rng.randrange(FIELD_COUNT)}"
            return (yield from table.update_by_rid(rid, {field: _value(self.rng)}))
        if op == "read_modify_write":
            found = yield from table.get((args["key"],))
            if found is None:
                return None
            rid, row = found
            field_index = self.rng.randrange(FIELD_COUNT)
            current = row[1 + field_index] or ""
            return (yield from table.update_by_rid(
                rid, {f"field{field_index}": current[:4] + _value(self.rng)}
            ))
        if op == "scan":
            return (yield from table.index_range(
                table.schema.primary_index,
                (args["key"],), None, limit=args["length"],
            ))
        if op == "insert":
            row = {"ycsb_key": args["key"]}
            for i in range(FIELD_COUNT):
                row[f"field{i}"] = _value(self.rng)
            return (yield from table.insert(row))
        raise ValueError(f"unknown YCSB operation {op!r}")
