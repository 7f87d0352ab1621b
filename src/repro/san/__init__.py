"""reprosan: dynamic sanitizers for the snapshot-isolation protocol.

Three interceptors validate a running deployment (simulated or direct)
against an independently maintained shadow history:

* :class:`~repro.san.si.SISanitizer` -- the SI axioms: reads return the
  newest snapshot-visible version, first-committer-wins on write-write
  overlap, no lost updates; plus an SSI-style dependency graph that
  *reports* write-skew cycles (SI permits them).
* :class:`~repro.san.gcsan.GCSanitizer` -- eager/lazy GC never prunes a
  version above the true lowest active version or out from under a live
  snapshot.
* :class:`~repro.san.chain.VersionChainSanitizer` -- version chains stay
  sorted, deduplicated, and structurally valid.

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
from typing import List, Optional, Tuple

from repro.san.shadow import ShadowHistory
from repro.san.violations import SanitizerError, Violation, ViolationLog

#: Environment flag enabling sanitizer attachment in stock harnesses
#: (bench ``--sanitize``, the SI invariant tests).
ENV_FLAG = "REPRO_SANITIZE"


def sanitizers_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ``0``."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def make_sanitizers(
    log: Optional[ViolationLog] = None,
    isolation: str = "si",
) -> Tuple[ViolationLog, List[object]]:
    """Build the standard sanitizer chain sharing one shadow history.

    Returns ``(log, [SISanitizer, GCSanitizer, VersionChainSanitizer])``
    -- ordered for :func:`repro.dispatch.compose`: post-result code runs
    innermost-first, so the GC and chain sanitizers see each observation
    against the *pre-write* shadow before the (outermost) SI sanitizer
    folds the write in.  The sanitizer imports stay lazy so the default
    (sanitizers-off) paths never pay for loading the dispatch stack.

    ``isolation`` names the deployment's protocol: under the
    read-validating modes ("wsi"/"ssi") the SI sanitizer's dependency
    analysis escalates write-skew cycles from reports to violations --
    the protocol promised to prevent them.
    """
    from repro.san.chain import VersionChainSanitizer
    from repro.san.gcsan import GCSanitizer
    from repro.san.si import SISanitizer

    if log is None:
        log = ViolationLog()
    shadow = ShadowHistory()
    chain: List[object] = [
        SISanitizer(log, shadow, serializable=isolation != "si"),
        GCSanitizer(log, shadow),
        VersionChainSanitizer(log),
    ]
    return log, chain


__all__ = [
    "ENV_FLAG",
    "SanitizerError",
    "ShadowHistory",
    "Violation",
    "ViolationLog",
    "make_sanitizers",
    "sanitizers_enabled",
]
