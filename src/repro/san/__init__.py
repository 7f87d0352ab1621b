"""reprosan: dynamic sanitizers for the snapshot-isolation protocol.

One interceptor, :class:`~repro.san.si.Sanitizer`, validates a running
deployment (simulated or direct) against a shadow history it maintains
independently of the production code.  It turns every data-space store
result into one observation per key and runs three passes over them:

1. version chains (:func:`~repro.san.chain.check_chain`) stay sorted,
   deduplicated, and structurally valid;
2. GC (:class:`~repro.san.gcsan.GCChecks`): eager/lazy GC never prunes a
   version above the true lowest active version or out from under a
   live snapshot -- checked against the shadow before the write;
3. the SI fold: reads return the newest snapshot-visible version,
   first-committer-wins on write-write overlap, no lost updates; it
   updates the shadow and builds an SSI-style dependency graph that
   *reports* write-skew cycles (SI permits them).

:mod:`repro.san.explorer` perturbs the sim kernel's schedule (random /
PCT / replay policies) to hunt interleaving-dependent violations;
:mod:`repro.san.scenarios` holds the conflict scenarios it drives.

Everything is off by default: the ``REPRO_SANITIZE`` environment
variable (or an explicit :func:`make_sanitizers` chain) turns it on.
Sanitizers are strictly observational -- they never mutate protocol
state (``tests/test_sanitizers.py::test_sanitizers_leave_the_run_unchanged``
checks that a sanitized run's digest and obs snapshot match the bare
run's) and never raise from inside the pipeline; check
:attr:`ViolationLog.clean` after the run.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.san.shadow import ShadowHistory
from repro.san.violations import SanitizerError, Violation, ViolationLog

if TYPE_CHECKING:
    from repro.san.si import Sanitizer

#: Environment flag enabling sanitizer attachment in stock harnesses
#: (bench ``--sanitize``, the SI invariant tests).
ENV_FLAG = "REPRO_SANITIZE"


def sanitizers_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ``0``."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def make_sanitizers(
    log: Optional[ViolationLog] = None,
    isolation: str = "si",
) -> Tuple[ViolationLog, List[Sanitizer]]:
    """Build the sanitizer chain: ``(log, [Sanitizer])``.

    The import stays lazy so the default (sanitizers-off) paths never pay
    for loading the dispatch stack.  ``isolation`` names the deployment's
    protocol: under the read-validating modes ("wsi"/"ssi") the
    dependency analysis escalates write-skew cycles from reports to
    violations -- the protocol promised to prevent them.
    """
    from repro.san.si import Sanitizer

    if log is None:
        log = ViolationLog()
    return log, [Sanitizer(log, serializable=isolation != "si")]


__all__ = [
    "ENV_FLAG",
    "SanitizerError",
    "ShadowHistory",
    "Violation",
    "ViolationLog",
    "make_sanitizers",
    "sanitizers_enabled",
]
