"""Cells: the unit of storage, and payload size estimation.

A cell holds an opaque value plus a *cell version* -- a counter that
increases on every write to the cell.  The cell version is the load-link
token: a ``PutIfVersion`` succeeds only when the cell version still equals
the version observed by the earlier ``Get``.  Because the counter is
monotonic, a value that was changed and changed back still fails the
conditional write, which is exactly the ABA immunity the paper requires of
LL/SC (Section 4.1).

A cell is never changed once installed: a write binds a new cell in its
place, so the backups of a partition share the master's cell object (each
replica is still charged its bytes), and a replica that missed a write
keeps the cell it had.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.effects import KIND_BATCH, KIND_SCAN, Request


class Cell:
    """One key's stored value and its write-stamp; never changed once
    installed, so replicas share it."""

    __slots__ = ("value", "version")

    def __init__(self, value: Any, version: int):
        self.value = value
        self.version = version

    def __repr__(self) -> str:
        return f"Cell(v{self.version}, {self.value!r})"


def approx_size(value: Any) -> int:
    """Estimate the serialized size of ``value`` in bytes.

    The simulator charges bandwidth by message size; an estimate within a
    factor of two is plenty.  Objects can opt in to an exact answer by
    defining ``approx_size()`` (records and index nodes do).

    This runs for every key and payload the simulated fabric ships, so
    the common scalar and row-tuple shapes take exact-type fast paths
    (a plain ``int``/``str``/``tuple`` cannot define ``approx_size``);
    everything else falls back to the generic protocol below.
    """
    cls = value.__class__
    if cls is int:
        return 8
    if cls is str:
        return len(value)
    if cls is tuple or cls is list:
        total = 8
        for item in value:
            icls = item.__class__
            if icls is int:
                total += 8
            elif icls is str:
                total += len(item)
            elif icls is float:
                total += 8
            else:
                total += approx_size(item)
        return total
    if cls is float:
        return 8
    if value is None:
        return 1
    method = getattr(value, "approx_size", None)
    if method is not None:
        return method()
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(approx_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(
            approx_size(k) + approx_size(v) for k, v in value.items()
        )
    return 64


def keys_size(keys: Sequence[Any], positions: Iterable[int]) -> int:
    """``approx_size`` of the keys at ``positions``, summed.  A data key
    ``(table_id, rid)`` -- nearly every key a batch ships -- is sized
    here, without a call per key."""
    total = 0
    for position in positions:
        key = keys[position]
        if (key.__class__ is tuple and len(key) == 2
                and key[0].__class__ is int and key[1].__class__ is int):
            total += 24
        else:
            total += approx_size(key)
    return total


def request_size(request: Request) -> int:
    """Estimated wire size of ``request``: a 24-byte header plus the key
    and, for puts, the value payload.  A batch is the sum of the
    single-key requests its keys stand for (a ``Get`` per read key, a
    ``Put`` / ``PutIfVersion`` per written one); a request without a key
    (commit-manager and local effects) is header only.

    The simulated fabric charges bandwidth by this for every store op it
    ships, and the dispatch trace reports the same figure per request
    class.
    """
    kind = request.kind
    if kind > KIND_SCAN:
        return 24
    if kind == KIND_BATCH:
        return (sum([24 + approx_size(key) for key in request.keys])
                + sum([approx_size(value) for value in request.values or ()]))
    if request.ships_value:
        return 24 + approx_size(request.key) + approx_size(request.value)
    return 24 + approx_size(request.key)
