"""The canonical effect-dispatch core.

Every Tell protocol coroutine communicates with its driver by yielding
:class:`repro.effects.Request` objects.  Historically each driver grew its
own ``isinstance`` ladder to interpret them (the direct Router, the
simulation fabric, the setup-time loader router); this module replaces all
of them with one shared classification step plus one composition rule for
cross-cutting concerns:

* :func:`kind_of` maps a request to a small integer *kind* (single-key
  store op, batch, scan, commit-manager call, local compute/sleep): one
  read of the ``kind`` its class declares in :mod:`repro.effects`, so a
  subclass routes like its parent.  This is the only request
  classification in the repository.
* :class:`Interceptor` is the uniform middleware protocol:
  ``intercept(request, ctx, next)`` written as a generator coroutine that
  delegates with ``result = yield from next(request)``.  The same
  interceptor runs unchanged under the direct runner (yields are resolved
  immediately) and the simulator (yields are Delays/Events charged in
  simulated time).
* :func:`compose` folds an ordered interceptor chain around a terminal
  handler.  An empty chain composes to the handler itself, so the default
  pipeline costs nothing -- the hot paths PR 1 optimized are untouched.

Drivers bind the kinds to their own handlers: the direct
:class:`repro.dispatch.direct.Dispatcher` resolves requests immediately,
while :class:`repro.runtime.fabric.SimFabric` keeps only the timing
model and lets this module own routing.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

# The KIND_* constants and kind_of live beside the classes that declare
# them; they stay importable from here and from :mod:`repro.dispatch`.
from repro.effects import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_CM_VALIDATE,
    KIND_COMPUTE,
    KIND_SCAN,
    KIND_SLEEP,
    KIND_STORE,
    kind_of,
)


class _ZeroClock:
    """Direct-mode stand-in for the simulator clock: time is not
    modelled, so every read returns 0."""

    __slots__ = ()

    @property
    def now(self) -> float:
        return 0.0


ZERO_CLOCK = _ZeroClock()


class DispatchContext:
    """Per-pipeline state visible to every interceptor.

    ``clock`` exposes ``.now`` in simulated microseconds (always 0 under
    the direct runner).
    """

    __slots__ = ("pn_id", "clock")

    def __init__(self, pn_id: int = -1, clock: Any = ZERO_CLOCK) -> None:
        self.pn_id = pn_id
        self.clock = clock

    def __repr__(self) -> str:
        return f"DispatchContext(pn_id={self.pn_id})"


class DispatchEnv:
    """Deployment-level bindings handed to :meth:`Interceptor.on_attach`.

    Fields are ``None`` when the owning driver does not have the
    component (e.g. ``sim`` under the direct runner, ``obs`` -- the
    :class:`repro.obs.Observability` hub -- when observability is off).
    """

    __slots__ = ("cluster", "commit_managers", "sim", "management", "obs")

    def __init__(self, cluster: Any = None,
                 commit_managers: Optional[Sequence[Any]] = None,
                 sim: Any = None, management: Any = None,
                 obs: Any = None) -> None:
        self.cluster = cluster
        self.commit_managers = list(commit_managers or ())
        self.sim = sim
        self.management = management
        self.obs = obs


#: A pipeline stage: called with the request, returns the generator that
#: resolves it (yielding Delays/Events to the driver as needed).
NextFn = Callable[[Any], Generator[Any, Any, Any]]


class Interceptor:
    """Base class for dispatch middleware.

    Subclasses override :meth:`intercept` as a *generator coroutine* and
    delegate to the rest of the pipeline with
    ``result = yield from next(request)``.  They may re-invoke ``next``
    (retries), raise (fault injection), yield extra Delays (latency), or
    record metadata (tracing).  Under the direct runner every yielded
    value resolves immediately to ``None``; under the simulator yields
    are charged in simulated time.
    """

    def on_attach(self, env: DispatchEnv) -> None:
        """Called once when the owning driver wires the pipeline."""

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        return (yield from next(request))


def compose(interceptors: Sequence[Interceptor], tail: NextFn,
            ctx: DispatchContext) -> NextFn:
    """Fold ``interceptors`` (outermost first) around ``tail``.

    Returns a callable with the same shape as ``tail``; an empty chain
    returns ``tail`` itself, so the zero-interceptor pipeline is the
    driver's terminal handler and nothing else.
    """
    next_fn = tail
    for interceptor in reversed(list(interceptors)):
        next_fn = _bind(interceptor, ctx, next_fn)
    return next_fn


def _bind(interceptor: Interceptor, ctx: DispatchContext,
          next_fn: NextFn) -> NextFn:
    intercept = interceptor.intercept

    def layer(request: Any) -> Generator[Any, Any, Any]:
        return intercept(request, ctx, next_fn)

    return layer


def drive_sync(generator: Generator[Any, Any, Any]) -> Any:
    """Drive an interceptor-chain generator in direct (untimed) mode.

    Yielded Delays/Events model simulated time, which direct mode does
    not track, so every yield resolves immediately to ``None`` -- e.g.
    retry backoffs and injected latency become no-ops, exactly like
    ``Compute``/``Sleep`` under the direct Router.
    """
    try:
        while True:
            generator.send(None)
    except StopIteration as stop:
        return stop.value


def attach_all(interceptors: Sequence[Interceptor], env: DispatchEnv) -> None:
    """Run every interceptor's :meth:`~Interceptor.on_attach` hook."""
    for interceptor in interceptors:
        interceptor.on_attach(env)
