"""Version-chain sanitizer: structural invariants of VersionedRecord.

Every record that crosses the dispatch pipeline -- read back by a
``Get``, swept by a raw ``Scan``, or about to be installed by a
``PutIfVersion`` -- is checked for the representation invariants the
whole visibility machinery silently relies on:

* **VC-ORDER** -- versions are sorted strictly newest-first.  The
  production ``latest_visible`` short-circuits on ``versions[0]`` and
  ``with_version`` does an ordered insert; an out-of-order chain makes
  reads return the wrong version without any axiom check noticing.
* **VC-DUP** -- no two versions share a tid (strictness of the order
  already implies this; reported separately for diagnosis).
* **VC-TID** -- every tid is >= 0.  Tid 0 is reserved for bulk-loaded
  base versions (``LOAD_VERSION``, visible to every snapshot); negative
  tids never occur and would corrupt the visibility bit math.

Stateless and shadow-free, so it can sit anywhere in the chain; by
convention it runs innermost so malformed records are flagged before
the other sanitizers reason about them.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import effects
from repro.core.spaces import DATA_SPACE
from repro.dispatch import (
    KIND_BATCH,
    KIND_SCAN,
    KIND_STORE,
    DispatchContext,
    DispatchEnv,
    Interceptor,
    NextFn,
    kind_of,
)
from repro.san.violations import ViolationLog


class VersionChainSanitizer(Interceptor):
    """Validates every observed version chain's structure."""

    def __init__(self, log: ViolationLog) -> None:
        self.log = log
        self.records_checked = 0

    def on_attach(self, env: DispatchEnv) -> None:
        pass

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        kind = kind_of(request)
        if kind == KIND_STORE:
            self._check_outgoing(request)
        elif kind == KIND_BATCH and request.batch_space == DATA_SPACE \
                and request.is_write:
            for key, value in zip(request.keys, request.values):
                self.check_record(key, value, origin="write")
        result = yield from next(request)
        if kind == KIND_STORE:
            self._check_result(request, result)
        elif kind == KIND_BATCH and request.batch_space == DATA_SPACE \
                and not request.is_write:
            for key, value in zip(request.keys, result[0]):
                if value is not None:
                    self.check_record(key, value, origin="read")
        elif kind == KIND_SCAN and request.space == DATA_SPACE \
                and request.snapshot is None:  # raw Scan
            for key, record, _cell_version in result:
                self.check_record(key, record, origin="scan")
        return result

    def _check_outgoing(self, op: Any) -> None:
        if getattr(op, "space", None) != DATA_SPACE:
            return
        if isinstance(op, (effects.Put, effects.PutIfVersion)):
            self.check_record(op.key, op.value, origin="write")

    def _check_result(self, op: Any, result: Any) -> None:
        if getattr(op, "space", None) != DATA_SPACE:
            return
        if isinstance(op, effects.Get):
            value, _cell_version = result
            if value is not None:
                self.check_record(op.key, value, origin="read")

    def check_record(self, key: Any, record: Any, origin: str) -> None:
        """Validate one chain; callable directly by scenario drivers."""
        self.records_checked += 1
        tids = record.version_numbers()
        previous = None
        seen = set()
        for tid in tids:
            if tid < 0:
                self.log.violation(
                    "VC-TID",
                    f"record {key!r} ({origin}) carries invalid tid "
                    f"{tid}; tids are >= 0 (0 = bulk-load base version)",
                    key=key, tid=tid, origin=origin,
                )
            if tid in seen:
                self.log.violation(
                    "VC-DUP",
                    f"record {key!r} ({origin}) carries tid {tid} twice",
                    key=key, tid=tid, origin=origin,
                )
            elif previous is not None and tid >= previous:
                self.log.violation(
                    "VC-ORDER",
                    f"record {key!r} ({origin}) is not sorted strictly "
                    f"newest-first: {tid} follows {previous} "
                    f"(chain: {list(tids)})",
                    key=key, tid=tid, origin=origin,
                )
            seen.add(tid)
            previous = tid
