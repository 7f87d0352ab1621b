"""Version-chain sanitizer: structural invariants of VersionedRecord.

Every record that crosses the dispatch pipeline -- read back by a
``Get`` or a read batch, swept by a raw ``Scan``, or installed by a
``PutIfVersion`` or a put batch -- is checked for the representation
invariants the whole visibility machinery silently relies on:

* **VC-ORDER** -- versions are sorted strictly newest-first.  The
  production ``latest_visible`` short-circuits on ``versions[0]`` and
  ``with_version`` does an ordered insert; an out-of-order chain makes
  reads return the wrong version without any axiom check noticing.
* **VC-DUP** -- no two versions share a tid (strictness of the order
  already implies this; reported separately for diagnosis).
* **VC-TID** -- every tid is >= 0.  Tid 0 is reserved for bulk-loaded
  base versions (``LOAD_VERSION``, visible to every snapshot); negative
  tids never occur and would corrupt the visibility bit math.

:func:`check_chain` is stateless and shadow-free.
:class:`~repro.san.si.Sanitizer` runs it as its first pass, so a
malformed record is flagged before the GC checks and the SI fold reason
about it.
"""

from __future__ import annotations

from typing import Any

from repro.san.violations import ViolationLog


def check_chain(log: ViolationLog, key: Any, record: Any, origin: str) -> None:
    """Validate one record's version chain; ``origin`` (read / write /
    scan) says where the record was observed."""
    tids = record.version_numbers()
    previous = None
    seen = set()
    for tid in tids:
        if tid < 0:
            log.violation(
                "VC-TID",
                f"record {key!r} ({origin}) carries invalid tid "
                f"{tid}; tids are >= 0 (0 = bulk-load base version)",
                key=key, tid=tid, origin=origin,
            )
        if tid in seen:
            log.violation(
                "VC-DUP",
                f"record {key!r} ({origin}) carries tid {tid} twice",
                key=key, tid=tid, origin=origin,
            )
        elif previous is not None and tid >= previous:
            log.violation(
                "VC-ORDER",
                f"record {key!r} ({origin}) is not sorted strictly "
                f"newest-first: {tid} follows {previous} "
                f"(chain: {list(tids)})",
                key=key, tid=tid, origin=origin,
            )
        seen.add(tid)
        previous = tid
