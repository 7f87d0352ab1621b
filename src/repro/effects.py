"""Requests that protocol coroutines yield to their driver.

All Tell protocol code (transactions, B+tree, commit manager clients, SQL
executor) is written as generator coroutines that ``yield`` request objects
and receive the corresponding results via ``send``.  Two drivers exist:

* :func:`run_direct` resolves every request immediately through a
  :class:`repro.dispatch.Dispatcher` bound to in-process components --
  this powers the embedded database API and fast unit tests.
* The simulation driver in :mod:`repro.runtime.fabric` charges network and
  service latency for every request, letting many workers interleave, which
  reproduces the distributed behaviour measured in the paper.

Because the same coroutines run under both drivers, the code being
benchmarked is the library itself, not a model of it.

Many keys of one space travel as one :class:`Batch`, built by
:func:`multi_get` or :func:`multi_put`.  It is columnar -- a space, the
keys and, for a put, the values and expected versions -- and resolves to
two result columns.  Its space is ``batch_space``: a ``FaultRule(space=...)``
matches single-key requests only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Generator, Optional, Sequence

from repro.errors import TellError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.store.node import StorageNode

#: Request kinds, declared by every concrete class below and read by
#: :func:`kind_of`.  ``KIND_STORE``..``KIND_SCAN`` are
#: storage-cluster requests; the CM kinds address the processing node's
#: commit manager; COMPUTE/SLEEP are local effects charged only under
#: simulation.
KIND_STORE = 0
KIND_BATCH = 1
KIND_SCAN = 2
KIND_CM_START = 3
KIND_CM_COMMITTED = 4
KIND_CM_ABORTED = 5
KIND_COMPUTE = 6
KIND_SLEEP = 7
#: Appended after the original kinds so the direct driver's range check
#: (``kind <= KIND_SCAN``) keeps its exact numeric meaning; only the
#: WSI/SSI protocols yield it.
KIND_CM_VALIDATE = 8


class Request:
    """Base class for every yieldable request.

    A concrete class declares its dispatch ``kind``; subclasses inherit
    it.  The abstract bases declare none, so no driver routes them.
    """

    __slots__ = ()

    kind: ClassVar[int]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def kind_of(request: Request) -> int:
    """The ``KIND_*`` constant ``request``'s class declares.

    Raises ``TypeError`` for objects that are not dispatchable requests
    (including the abstract bases and unknown
    :class:`CommitManagerRequest` subclasses, which declare no kind
    because no driver knows how to serve them).
    """
    try:
        return request.kind
    except AttributeError:
        raise TypeError(f"unroutable request: {request!r}") from None


# ---------------------------------------------------------------------------
# Storage layer requests (served by the shared record store)
# ---------------------------------------------------------------------------


class StoreRequest(Request):
    """A request addressed to the shared storage system.

    Besides its ``kind`` a concrete class declares ``is_write`` (the op
    changes the cell, so it is copied to the backups) and :meth:`apply`,
    the :class:`~repro.store.node.StorageNode` operation that serves it.
    """

    __slots__ = ("space", "key")

    is_write: ClassVar[bool]
    #: The request ships a value payload beside its key (wire size).
    ships_value: ClassVar[bool] = False

    def __init__(self, space: str, key: Any) -> None:
        self.space = space
        self.key = key

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        """Run on ``node``; returns the request's result."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.space!r}, {self.key!r})"


class Get(StoreRequest):
    """Read one cell.  Result: ``(value, cell_version)``; missing cells
    return ``(None, 0)``.  The cell version is the LL token for LL/SC."""

    __slots__ = ()

    kind = KIND_STORE
    is_write = False

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_get(partition_id, self.space, self.key)


class Put(StoreRequest):
    """Unconditional write.  Result: new cell version (int)."""

    __slots__ = ("value",)

    kind = KIND_STORE
    is_write = True
    ships_value = True

    def __init__(self, space: str, key: Any, value: Any) -> None:
        super().__init__(space, key)
        self.value = value

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_put(partition_id, self.space, self.key, self.value)

    def __repr__(self) -> str:
        return f"Put({self.space!r}, {self.key!r}, {self.value!r})"


class PutIfVersion(StoreRequest):
    """Store-conditional write (the SC of LL/SC).

    The write succeeds only if the cell's current version equals
    ``expected_version`` (0 means "must not exist").  Result:
    ``(ok, new_or_current_version)``.  Unlike compare-and-swap this is
    immune to the ABA problem because cell versions increase on every write.
    """

    __slots__ = ("value", "expected_version")

    kind = KIND_STORE
    is_write = True
    ships_value = True

    def __init__(self, space: str, key: Any, value: Any, expected_version: int) -> None:
        super().__init__(space, key)
        self.value = value
        self.expected_version = expected_version

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_put_if_version(
            partition_id, self.space, self.key, self.value,
            self.expected_version,
        )

    def __repr__(self) -> str:
        return (
            f"PutIfVersion({self.space!r}, {self.key!r}, {self.value!r}, "
            f"expected_version={self.expected_version})"
        )


class Delete(StoreRequest):
    """Remove a cell.  Result: ``True`` if it existed."""

    __slots__ = ()

    kind = KIND_STORE
    is_write = True

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_delete(partition_id, self.space, self.key)


class DeleteIfVersion(StoreRequest):
    """Conditional remove.  Result: ``(ok, current_version)``."""

    __slots__ = ("expected_version",)

    kind = KIND_STORE
    is_write = True

    def __init__(self, space: str, key: Any, expected_version: int) -> None:
        super().__init__(space, key)
        self.expected_version = expected_version

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_delete_if_version(
            partition_id, self.space, self.key, self.expected_version
        )

    def __repr__(self) -> str:
        return (
            f"DeleteIfVersion({self.space!r}, {self.key!r}, "
            f"expected_version={self.expected_version})"
        )


class Increment(StoreRequest):
    """Atomically add ``delta`` to a numeric cell (creating it at 0).

    Result: the post-increment value.  Tell uses this for the global tid
    counter and for rid allocation.
    """

    __slots__ = ("delta",)

    kind = KIND_STORE
    is_write = True

    def __init__(self, space: str, key: Any, delta: int = 1) -> None:
        super().__init__(space, key)
        self.delta = delta

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        return node.do_increment(partition_id, self.space, self.key, self.delta)

    def __repr__(self) -> str:
        return f"Increment({self.space!r}, {self.key!r}, delta={self.delta})"


class Scan(StoreRequest):
    """Range scan over keys in one space: ``start <= key < end``.

    Result: list of ``(key, value, cell_version)`` sorted by key, at most
    ``limit`` entries.  This powers full table scans ("data is shipped to
    the query") and the lazy garbage collector.

    With ``snapshot`` set, the storage nodes resolve the snapshot-visible
    version of each record themselves and -- if ``scan_filter`` is
    given -- pre-filter rows before shipping them: the selection
    push-down of Section 5.2.  The result rows then
    carry the visible *payload* instead of the whole versioned record.
    """

    __slots__ = ("end", "limit", "snapshot", "scan_filter")

    kind = KIND_SCAN
    is_write = False

    def __init__(self, space: str, start: Any, end: Any,
                 limit: Optional[int] = None, snapshot: Any = None,
                 scan_filter: Any = None) -> None:
        super().__init__(space, start)
        self.end = end
        self.limit = limit
        self.snapshot = snapshot
        self.scan_filter = scan_filter

    @property
    def start(self) -> Any:
        return self.key

    def apply(self, node: StorageNode, partition_id: int) -> Any:
        """One partition's slice of the scan."""
        return node.do_scan(
            partition_id, self.space, self.key, self.end, self.limit,
            snapshot=self.snapshot, scan_filter=self.scan_filter,
        )

    def __repr__(self) -> str:
        extra = ""
        if self.limit is not None:
            extra += f", limit={self.limit}"
        if self.snapshot is not None:
            extra += ", snapshot=..."
        if self.scan_filter is not None:
            extra += ", pushdown=..."
        return f"Scan({self.space!r}, {self.key!r}..{self.end!r}{extra})"


class Batch(Request):
    """Many keys of one space combined into one network round trip.

    Tell "aggressively batches operations" (Section 5.1): the keys going
    to the same storage node share a round trip.  A batch is columnar:
    it carries the space (``batch_space``; deliberately not ``space``,
    which a :class:`~repro.dispatch.FaultRule` matches on single-key
    requests only) and parallel lists, and every driver serves the keys
    directly and fills two result columns in key order.  A many-key
    batch therefore keeps no object per key alive for its round trip --
    neither a request nor a result pair.  Two factories build it:

    * :func:`multi_get` (``values`` is None) resolves to
      ``(values, versions)``: ``values[i]`` is the value stored under
      ``keys[i]`` (None when missing), ``versions[i]`` its cell version
      (0 when missing) -- what a :class:`Get` of the key returns;
    * :func:`multi_put` resolves to ``(oks, versions)``: key ``i`` is
      written with ``values[i]`` exactly as the :class:`Put` (``expected``
      None) or ``PutIfVersion(..., expected[i])`` it stands for would be,
      in key order; ``oks[i]`` says whether it was applied and
      ``versions[i]`` is the new (or, on a refused store-conditional,
      the current) cell version.
    """

    __slots__ = ("batch_space", "keys", "values", "expected")

    kind = KIND_BATCH

    def __init__(self, space: str, keys: Sequence[Any],
                 values: Optional[Sequence[Any]] = None,
                 expected: Optional[Sequence[int]] = None) -> None:
        self.batch_space = space
        self.keys = list(keys)
        self.values = None if values is None else list(values)
        self.expected = None if expected is None else list(expected)

    @property
    def is_write(self) -> bool:
        return self.values is not None

    def __repr__(self) -> str:
        verb = "get" if self.values is None else "put"
        return f"Batch({verb} {self.batch_space!r}, {len(self.keys)} keys)"


def multi_get(space: str, keys: Sequence[Any]) -> Batch:
    """A batch reading ``keys`` in ``space``; resolves to
    ``(values, versions)`` in key order."""
    return Batch(space, keys)


def multi_put(space: str, keys: Sequence[Any], values: Sequence[Any],
              expected: Optional[Sequence[int]] = None) -> Batch:
    """A batch writing ``values[i]`` under ``keys[i]`` in ``space``;
    resolves to ``(oks, versions)`` in key order.  ``expected`` None
    writes unconditionally; otherwise key ``i`` is a store-conditional
    expecting cell version ``expected[i]``."""
    return Batch(space, keys, values, expected)


# ---------------------------------------------------------------------------
# Commit manager requests
# ---------------------------------------------------------------------------


class CommitManagerRequest(Request):
    __slots__ = ()


class StartTransaction(CommitManagerRequest):
    """Begin a transaction.  Result: :class:`repro.core.snapshot.TxnStart`
    carrying (tid, snapshot descriptor, lowest active version)."""

    __slots__ = ()

    kind = KIND_CM_START


class ReportCommitted(CommitManagerRequest):
    """Tell the commit manager that ``tid`` committed."""

    __slots__ = ("tid",)

    kind = KIND_CM_COMMITTED

    def __init__(self, tid: int) -> None:
        self.tid = tid

    def __repr__(self) -> str:
        return f"ReportCommitted(tid={self.tid})"


class ReportAborted(CommitManagerRequest):
    """Tell the commit manager that ``tid`` aborted."""

    __slots__ = ("tid",)

    kind = KIND_CM_ABORTED

    def __init__(self, tid: int) -> None:
        self.tid = tid

    def __repr__(self) -> str:
        return f"ReportAborted(tid={self.tid})"


class ValidateCommit(CommitManagerRequest):
    """Commit-time validation under the read-validating isolation
    protocols (WSI / SSI, :mod:`repro.core.isolation`).

    Carries the transaction's read and write key sets plus its snapshot
    descriptor; the commit manager checks them against the recent-commit
    window and registers the transaction on success.  Result: a
    ``ValidationVerdict`` (``.ok`` false means the transaction must
    abort).  Plain SI never yields this request.
    """

    __slots__ = ("tid", "read_keys", "write_keys", "snapshot")

    kind = KIND_CM_VALIDATE

    def __init__(self, tid: int, read_keys: Sequence[Any],
                 write_keys: Sequence[Any], snapshot: Any) -> None:
        self.tid = tid
        self.read_keys = tuple(read_keys)
        self.write_keys = tuple(write_keys)
        self.snapshot = snapshot

    def __repr__(self) -> str:
        return (
            f"ValidateCommit(tid={self.tid}, reads={len(self.read_keys)}, "
            f"writes={len(self.write_keys)})"
        )


# ---------------------------------------------------------------------------
# Local effects
# ---------------------------------------------------------------------------


class Compute(Request):
    """Local CPU work on the processing node, in microseconds.

    The direct runner ignores it; the simulation driver charges the PN's
    core pool, which is what makes processing nodes saturate realistically.
    """

    __slots__ = ("duration",)

    kind = KIND_COMPUTE

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def __repr__(self) -> str:
        return f"Compute({self.duration})"


class Sleep(Request):
    """Suspend for simulated time (background tasks: GC, CM sync)."""

    __slots__ = ("duration",)

    kind = KIND_SLEEP

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def __repr__(self) -> str:
        return f"Sleep({self.duration})"


def run_direct(generator: Generator[Any, Any, Any], router: Any) -> Any:
    """Drive a protocol coroutine to completion, resolving each request
    immediately via ``router.execute``.  Returns the coroutine's result.

    Protocol-level errors (``TellError``) are thrown *into* the coroutine
    so its abort/cleanup path runs -- the same contract as the simulation
    driver.  Anything else (driver bugs, injected crashes) closes the
    coroutine and propagates, so ``finally`` blocks still execute instead
    of abandoning the transaction mid-flight.
    """
    send = generator.send
    result: Any = None
    error: Optional[BaseException] = None
    while True:
        try:
            if error is None:
                request = send(result)
            else:
                exc, error = error, None
                request = generator.throw(exc)
        except StopIteration as stop:
            return stop.value
        try:
            result = router.execute(request)
        except TellError as exc:
            error = exc
        except BaseException:
            generator.close()
            raise
