"""The canonical effect-dispatch pipeline.

One classification step (:func:`~repro.effects.kind_of`), one
middleware protocol (:class:`~repro.dispatch.core.Interceptor`), one
synchronous driver (:class:`~repro.dispatch.direct.Dispatcher`), and the
three production interceptors (tracing, fault injection, retry policy).
See ``docs/dispatch.md`` for the architecture and the interceptor
authoring guide.
"""

from repro.dispatch.core import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_CM_VALIDATE,
    KIND_COMPUTE,
    KIND_SCAN,
    KIND_SLEEP,
    KIND_STORE,
    ZERO_CLOCK,
    DispatchContext,
    DispatchEnv,
    Interceptor,
    NextFn,
    attach_all,
    compose,
    drive_sync,
    kind_of,
)
from repro.dispatch.direct import Dispatcher
from repro.dispatch.interceptors import (
    CrashPoint,
    FaultInjector,
    FaultRule,
    InjectedCrash,
    RetryPolicy,
    ScheduledFault,
    TraceInterceptor,
    WrongOwnerRedirect,
    kill_storage_node,
)

__all__ = [
    "KIND_STORE",
    "KIND_BATCH",
    "KIND_SCAN",
    "KIND_CM_START",
    "KIND_CM_COMMITTED",
    "KIND_CM_ABORTED",
    "KIND_CM_VALIDATE",
    "KIND_COMPUTE",
    "KIND_SLEEP",
    "ZERO_CLOCK",
    "DispatchContext",
    "DispatchEnv",
    "Interceptor",
    "NextFn",
    "attach_all",
    "compose",
    "drive_sync",
    "kind_of",
    "Dispatcher",
    "TraceInterceptor",
    "InjectedCrash",
    "FaultRule",
    "ScheduledFault",
    "FaultInjector",
    "CrashPoint",
    "RetryPolicy",
    "WrongOwnerRedirect",
    "kill_storage_node",
]
