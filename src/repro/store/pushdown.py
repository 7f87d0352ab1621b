"""Operator push-down into the storage layer (paper Section 5.2).

For mixed workloads the paper proposes executing simple relational
operators (selection, projection) inside the storage nodes so that
analytical scans ship *result* rows instead of whole tables.  This
module defines the one that is pushed down, selection: a conjunction of
column/constant comparisons evaluated against the snapshot-visible
version of each record during a scan.

The storage layer stays generic: it only needs the value to offer
``latest_visible(snapshot)`` (which :class:`repro.core.record.
VersionedRecord` does) and evaluates the filter on plain row tuples.
"""

from __future__ import annotations

import operator
from typing import Any, Sequence, Tuple

from repro.errors import InvalidState

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class ScanFilter:
    """A conjunction of ``row[position] <op> constant`` predicates.

    NULL (None) never satisfies a comparison, mirroring SQL semantics.
    """

    __slots__ = ("conjuncts",)

    def __init__(self, conjuncts: Sequence[Tuple[int, str, Any]]):
        for _position, op, _value in conjuncts:
            if op not in _OPERATORS:
                raise InvalidState(f"unsupported pushdown operator {op!r}")
        self.conjuncts = tuple(conjuncts)

    def matches(self, row: Tuple[Any, ...]) -> bool:
        for position, op, value in self.conjuncts:
            candidate = row[position]
            if candidate is None or value is None:
                return False
            if not _OPERATORS[op](candidate, value):
                return False
        return True

    def approx_size(self) -> int:
        return 16 * max(1, len(self.conjuncts))

    def __repr__(self) -> str:
        parts = " AND ".join(
            f"col{position} {op} {value!r}"
            for position, op, value in self.conjuncts
        )
        return f"ScanFilter({parts or 'TRUE'})"
