"""The isolation modes and their commit-manager validators.

Three first-class modes (``docs/isolation.md`` has the full matrix):

* ``si``  -- snapshot isolation, the paper's protocol (Section 4.1).
  No read tracking, no validation round trip.
* ``wsi`` -- write-snapshot isolation: the transaction's read set is
  captured on the PN and validated at the commit manager against keys
  written by concurrent commits.
* ``ssi`` -- serializable SI: the commit manager additionally tracks
  rw-antidependencies between recent commits and aborts transactions
  that would complete a dangerous structure.

The commit pipeline is one sequence for all three
(:meth:`repro.core.transaction.Transaction.commit`): under ``wsi`` /
``ssi`` it keeps a read set and yields one
:class:`repro.effects.ValidateCommit`.  What differs between the modes
is the admission rule, and that lives here, in the validator the
deployment's commit managers share (:mod:`.validation`).  The validator's
window is private to this package and the read set to the transaction
module; a SQL scan reports its keys through
:meth:`~repro.core.transaction.Transaction.note_scanned`
(``tests/test_isolation.py::test_sql_scan_write_skew_by_mode``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.isolation.validation import (
    CommitValidator,
    SSICommitValidator,
    ValidationVerdict,
)
from repro.errors import InvalidState

#: Accepted values of ``DatabaseConfig.isolation`` / ``connect(isolation=)``.
ISOLATION_MODES = ("si", "wsi", "ssi")


def make_validator(isolation: str = "si") -> Optional[CommitValidator]:
    """The commit-manager validator for ``isolation`` (None under SI).

    Deployments with several commit managers must share one validator
    instance across all of them -- it models validation state kept in
    the (synchronized) store, not per-manager memory.
    """
    if isolation == "si":
        return None
    if isolation == "wsi":
        return CommitValidator()
    if isolation == "ssi":
        return SSICommitValidator()
    raise InvalidState(f"no validator for isolation mode {isolation!r}")


__all__ = [
    "ISOLATION_MODES",
    "CommitValidator",
    "SSICommitValidator",
    "ValidationVerdict",
    "make_validator",
]
