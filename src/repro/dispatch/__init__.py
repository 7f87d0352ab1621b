"""The canonical effect-dispatch pipeline.

One classification step (:func:`~repro.effects.kind_of`), one
middleware protocol (:class:`~repro.dispatch.core.Interceptor`), one
synchronous driver (:class:`~repro.dispatch.direct.Dispatcher`), and the
production interceptors (tracing, fault injection, retry policy).
See ``docs/dispatch.md`` for the architecture and the interceptor
authoring guide.
"""

from repro.dispatch.core import (
    ZERO_CLOCK,
    DispatchContext,
    Interceptor,
    NextFn,
    compose,
    drive_sync,
)
from repro.dispatch.direct import Dispatcher
from repro.dispatch.interceptors import (
    CrashPoint,
    FaultInjector,
    FaultRule,
    InjectedCrash,
    RetryPolicy,
    TraceInterceptor,
    WrongOwnerRedirect,
)

__all__ = [
    "ZERO_CLOCK",
    "DispatchContext",
    "Interceptor",
    "NextFn",
    "compose",
    "drive_sync",
    "Dispatcher",
    "TraceInterceptor",
    "InjectedCrash",
    "FaultRule",
    "FaultInjector",
    "CrashPoint",
    "RetryPolicy",
    "WrongOwnerRedirect",
]
