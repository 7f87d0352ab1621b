"""Violation collection for the sanitizer suite.

Sanitizers are strictly observational: a detected violation must never
change the run it is observing (raising from inside an interceptor would
unwind the simulated transaction like an infrastructure fault and alter
the very interleaving under test).  They therefore *collect* into a
:class:`ViolationLog`; the driver checks :meth:`ViolationLog.assert_clean`
after the run, exactly like LeakSanitizer reporting at process exit.

Three severities:

* **violations** -- SI/GC/version-chain axiom breaches; these fail runs.
* **reports** -- anomalies snapshot isolation *permits* (write-skew
  cycles in the SSI dependency graph); surfaced but never failing.
* **reconciliations** -- counted observations where the shadow history
  resynchronized with the store after an unsanitized code path (bulk
  load, recovery, replication) touched a cell.  High counts mean the
  sanitizer was blind for part of the run, not that the run was wrong.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class SanitizerError(AssertionError):
    """Raised by :meth:`ViolationLog.assert_clean` when violations were
    collected.  An AssertionError so pytest renders the summary."""


class Violation:
    """One observed axiom breach (or report)."""

    __slots__ = ("code", "message", "details")

    def __init__(self, code: str, message: str,
                 details: Optional[Dict[str, Any]] = None) -> None:
        self.code = code
        self.message = message
        self.details = details or {}

    def __repr__(self) -> str:
        return f"Violation({self.code}: {self.message})"


class ViolationLog:
    """Collect-only sink shared by every sanitizer in one chain."""

    def __init__(self, limit: int = 200) -> None:
        self.violations: List[Violation] = []
        self.reports: List[Violation] = []
        self.reconciliations: Dict[str, int] = {}
        self.limit = limit

    # -- recording -------------------------------------------------------

    def violation(self, code: str, message: str, **details: Any) -> None:
        if len(self.violations) < self.limit:
            self.violations.append(Violation(code, message, details))

    def report(self, code: str, message: str, **details: Any) -> None:
        if len(self.reports) < self.limit:
            self.reports.append(Violation(code, message, details))

    def reconcile(self, kind: str) -> None:
        self.reconciliations[kind] = self.reconciliations.get(kind, 0) + 1

    # -- inspection ------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def codes(self) -> List[str]:
        """Sorted distinct violation codes (test-friendly)."""
        return sorted({v.code for v in self.violations})

    def summary(self) -> str:
        lines = [
            f"{len(self.violations)} violation(s), "
            f"{len(self.reports)} report(s), "
            f"{sum(self.reconciliations.values())} reconciliation(s)"
        ]
        for v in self.violations[:20]:
            lines.append(f"  [{v.code}] {v.message}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        for r in self.reports[:5]:
            lines.append(f"  (report) [{r.code}] {r.message}")
        return "\n".join(lines)

    def assert_clean(self) -> None:
        if self.violations:
            raise SanitizerError(self.summary())

    def __repr__(self) -> str:
        return (
            f"<ViolationLog violations={len(self.violations)} "
            f"reports={len(self.reports)}>"
        )
