"""Direct (synchronous) dispatcher: the canonical in-process driver.

:class:`Dispatcher` resolves every request immediately against its bound
targets -- storage cluster, commit manager, and the (unmodelled) clock --
through the shared classification in :mod:`repro.dispatch.core`; the
embedded database, the bulk loader and the tests drive coroutines with it
through :func:`repro.effects.run_direct`.

With no interceptors the pipeline is exactly one kind lookup plus the
handler call, preserving the direct path's cost.  With interceptors the
request flows through the composed chain; yields (retry backoff, injected
latency) resolve immediately because direct mode does not model time.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.dispatch.core import (
    DispatchContext,
    Interceptor,
    NextFn,
    compose,
    drive_sync,
)
from repro.effects import KIND_COMPUTE, KIND_SCAN, KIND_SLEEP, kind_of


class Dispatcher:
    """Binds one processing node's effects to in-process targets.

    ``commit_manager`` may be ``None`` (setup-time loading, cluster-only
    recovery): commit-manager requests then raise ``RuntimeError``.  The
    attribute is read on every dispatch, so rebinding it (commit-manager
    fail-over) takes effect immediately.
    """

    def __init__(
        self,
        cluster: Any,
        commit_manager: Any = None,
        pn_id: int = -1,
        interceptors: Sequence[Interceptor] = (),
    ) -> None:
        self.cluster = cluster
        self.commit_manager = commit_manager
        self.pn_id = pn_id
        self.interceptors = list(interceptors)
        self.context = DispatchContext(pn_id=pn_id)
        self._chain: Optional[NextFn] = None
        if self.interceptors:
            self._chain = compose(self.interceptors, self._tail, self.context)

    def execute(self, request: Any) -> Any:
        """Resolve one request synchronously; the drivers' entry point."""
        chain = self._chain
        if chain is None:
            return self._handle(request)
        return drive_sync(chain(request))

    # -- resolution ----------------------------------------------------------

    def _handle(self, request: Any) -> Any:
        kind = kind_of(request)
        if kind <= KIND_SCAN:  # store single / batch / scan
            return self.cluster.execute(request)
        if kind == KIND_COMPUTE or kind == KIND_SLEEP:
            return None  # time is not modelled in direct mode
        return self._commit_manager().serve(request, self.pn_id)

    def _tail(self, request: Any) -> Generator[Any, Any, Any]:
        """Generator-shaped terminal stage for the interceptor chain."""
        return self._handle(request)
        yield  # pragma: no cover -- makes this a generator function

    def _commit_manager(self) -> Any:
        if self.commit_manager is None:
            raise RuntimeError("no commit manager attached to this dispatcher")
        return self.commit_manager

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} pn_id={self.pn_id} "
            f"interceptors={len(self.interceptors)}>"
        )
