"""Production interceptors: tracing, fault injection, retry policy.

All three implement the uniform :class:`repro.dispatch.core.Interceptor`
protocol and therefore run unchanged under the direct runner and the
simulated deployment.  Order matters: the chain runs outermost-first, so
the conventional stack is

    [TraceInterceptor, RetryPolicy, FaultInjector]

-- the trace sees one logical request per protocol yield, the retry
policy re-drives the faulty tail, and faults are injected closest to the
(real or simulated) hardware.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Optional, Sequence, Tuple, Type

from repro.dispatch.core import DispatchContext, Interceptor, NextFn
from repro.effects import KIND_BATCH
from repro.errors import NodeUnavailable, WrongOwner
from repro.obs.registry import MetricsRegistry
from repro.store.cell import request_size

# ---------------------------------------------------------------------------
# trace / metrics
# ---------------------------------------------------------------------------


class TraceInterceptor(Interceptor):
    """Counts, sizes, and times every request flowing through a pipeline.

    Purely observational: it charges no time and changes no results, so a
    run with only this interceptor produces a ``TxnMetrics.digest()``
    identical to the bare pipeline.  It records into ``self.registry``,
    labelled by request class:

    * ``repro_request_latency_us{class}`` -- histogram; its ``count`` is
      the number of requests, failed ones included,
    * ``repro_request_ops{class}`` / ``repro_request_bytes{class}`` --
      operations (a batch counts each key) and estimated wire bytes,
    * ``repro_request_errors{class,error}`` -- requests that raised, by
      exception type.  Successful round trips are count minus errors.

    Without a ``registry`` it records into one of its own; pass an
    observability-enabled deployment's ``obs.registry`` to put the series
    in that deployment's ``repro-obs/2`` snapshot.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._latency = registry.histogram(
            "repro_request_latency_us", "request latency by request class")
        self._ops = registry.counter(
            "repro_request_ops", "store operations carried by request class")
        self._bytes = registry.counter(
            "repro_request_bytes", "estimated wire bytes by request class")
        self._errors = registry.counter(
            "repro_request_errors",
            "failed requests by request class and exception type")

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        labels = {"class": request.__class__.__name__}
        started = ctx.clock.now
        try:
            return (yield from next(request))
        except BaseException as exc:
            self._errors.inc(error=exc.__class__.__name__, **labels)
            raise
        finally:
            # Failed requests still count toward the per-class totals --
            # an aborted transaction's requests must reconcile with the
            # sanitizer shadow history, not vanish from the trace.
            self._latency.observe(ctx.clock.now - started, **labels)
            ops = len(request.keys) if request.kind == KIND_BATCH else 1
            self._ops.inc(ops, **labels)
            self._bytes.inc(request_size(request), **labels)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


class InjectedCrash(Exception):
    """Raised by :class:`CrashPoint` to abandon a protocol coroutine the
    instant after a chosen request executed -- the shape of a processing
    node dying mid-transaction.  Deliberately *not* a TellError: drivers
    must not route it into the coroutine's error handling (a crashed PN
    runs no cleanup code)."""

    def __init__(self, request: Any) -> None:
        super().__init__(f"injected crash after {request!r}")
        self.request = request


class FaultRule:
    """One deterministic injection rule.

    Matches requests by class name (``op``, ``None`` = any) and -- for
    storage requests -- by ``space`` (``None`` = any).  On a match, with
    probability ``error_rate`` the rule raises ``error_type(...)`` instead
    of executing the request.
    """

    __slots__ = ("op", "space", "error_rate", "error_type")

    def __init__(self, op: Optional[str] = None, space: Optional[str] = None,
                 error_rate: float = 0.0,
                 error_type: Type[Exception] = NodeUnavailable) -> None:
        self.op = op
        self.space = space
        self.error_rate = error_rate
        self.error_type = error_type

    def matches(self, request: Any) -> bool:
        if self.op is not None and request.__class__.__name__ != self.op:
            return False
        if self.space is not None and getattr(request, "space", None) != self.space:
            return False
        return True


class FaultInjector(Interceptor):
    """Deterministic, seed-driven fault injection middleware.

    Per-space/per-op *errors* via :class:`FaultRule`;
    error probabilities are drawn from a private seeded RNG, so a fixed
    seed reproduces the exact same faults.  Deployment events (an SN
    kill, a commit-manager fail-over) are plain simulator callbacks, e.g.
    ``deployment.sim.call_at(t, lambda:
    deployment.management.handle_node_failure(n))``.
    """

    def __init__(self, seed: int = 0, rules: Sequence[FaultRule] = ()) -> None:
        self.rng = random.Random(seed)
        self.rules = list(rules)
        self.injected_errors = 0

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        for rule in self.rules:
            if not rule.matches(request):
                continue
            if rule.error_rate > 0.0 and self.rng.random() < rule.error_rate:
                self.injected_errors += 1
                raise rule.error_type(
                    f"injected fault for {request!r}"
                )
        return (yield from next(request))


def _delay(duration: float) -> Any:
    from repro.sim.kernel import Delay

    return Delay(duration)


class CrashPoint(Interceptor):
    """Crash the driving coroutine right after a chosen request executes.

    ``predicate(request)`` picks the crash point; the request *is*
    executed (its state transition lands in the store) and then
    :class:`InjectedCrash` unwinds the driver, abandoning the coroutine
    exactly like a processing-node failure between two requests.  Fires
    at most once.
    """

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self.predicate = predicate
        self.fired = False

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        result = yield from next(request)
        if not self.fired and self.predicate(request):
            self.fired = True
            raise InjectedCrash(request)
        return result


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class RetryPolicy(Interceptor):
    """Centralized bounded retry with exponential backoff.

    Retries the tail of the pipeline when it raises one of ``retry_on``
    (transient storage errors by default), waiting ``backoff_us`` of
    simulated time before the first retry and doubling per attempt
    (``multiplier``).  Under the direct runner the backoff resolves
    immediately (time is not modelled).  ``retryable(request, exc)``
    optionally narrows which requests may be retried -- e.g. reads only.
    """

    def __init__(self, max_attempts: int = 3, backoff_us: float = 100.0,
                 multiplier: float = 2.0,
                 retry_on: Tuple[Type[Exception], ...] = (NodeUnavailable,),
                 retryable: Optional[Callable[[Any, Exception], bool]] = None,
                 ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_us = backoff_us
        self.multiplier = multiplier
        self.retry_on = retry_on
        self.retryable = retryable
        self.retries = 0

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        attempt = 1
        backoff = self.backoff_us
        while True:
            try:
                return (yield from next(request))
            except self.retry_on as exc:
                if attempt >= self.max_attempts:
                    raise
                if self.retryable is not None and not self.retryable(
                        request, exc):
                    raise
                attempt += 1
                self.retries += 1
                if backoff > 0.0:
                    yield _delay(backoff)
                    backoff *= self.multiplier


class WrongOwnerRedirect(RetryPolicy):
    """Re-route requests that hit a node whose partition migrated away.

    During a live migration a request can be routed (send time) to a
    node that is no longer the partition's owner by the time it is
    served; the storage layer rejects it with
    :class:`~repro.errors.WrongOwner` *before any state mutation*.  This
    retry policy waits a constant ``pause_us`` of simulated time (letting
    the promotion's epoch settle) and re-issues the request down the tail
    of the pipeline, which re-reads the partition map and therefore
    reaches the new owner.

    Must sit **innermost** in the chain (closest to the fabric) so that
    outer middleware -- in particular the sanitizers -- observes one
    logical request regardless of how many redirects it took.
    ``max_redirects`` bounds pathological flapping; a redirect that keeps
    failing surfaces the final :class:`WrongOwner` to the caller.
    """

    def __init__(self, max_redirects: int = 8, pause_us: float = 20.0) -> None:
        if max_redirects < 1:
            raise ValueError("max_redirects must be >= 1")
        super().__init__(max_attempts=max_redirects + 1, backoff_us=pause_us,
                         multiplier=1.0, retry_on=(WrongOwner,))

    @property
    def redirects(self) -> int:
        return self.retries


__all__ = [
    "TraceInterceptor",
    "InjectedCrash",
    "FaultRule",
    "FaultInjector",
    "CrashPoint",
    "RetryPolicy",
    "WrongOwnerRedirect",
]
