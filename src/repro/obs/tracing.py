"""Span-based tracing for the transaction lifecycle.

A *root span* covers one transaction from ``begin`` to commit/abort.
Child spans mark the phases the paper's Table 4 decomposes response time
into -- ``snapshot`` (tid + snapshot acquisition from the commit manager),
``read`` (record fetches through the buffer), ``validate`` (the WSI/SSI
commit-time read validation round trip, between the commit precheck and
the write phase; always zero under plain SI), ``write`` (batch apply,
index maintenance, write-through), ``commit`` (log append and the commit
protocol tail), plus ``abort`` for rollback work.  Whatever is left of
the root duration is attributed to ``other`` (application compute).

Timestamps come from an injected clock -- the simulator clock in
simulated deployments -- so traces are deterministic under fixed seeds.
There is no implicit "current span" stack: simulated processing nodes
interleave coroutines at every yield point, so ambient context would
misattribute work.  Spans travel explicitly on the transaction object.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.registry import MetricsRegistry


class Span:
    """One timed segment of work.  Children must be finished (or are
    force-closed) by the time the root finishes."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start_us",
                 "end_us", "attrs", "children")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], start_us: float) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        self.children: List[Span] = []

    def child(self, name: str, start_us: Optional[float] = None) -> "Span":
        """Open a child span (caller finishes it, or the root sweep does)."""
        tracer = self.tracer
        span = Span(tracer, name, tracer._next_id(), self.span_id,
                    tracer.clock() if start_us is None else start_us)
        self.children.append(span)
        return span

    def finish(self, end_us: Optional[float] = None) -> None:
        if self.end_us is not None:
            return
        self.end_us = self.tracer.clock() if end_us is None else end_us
        if self.parent_id is None:
            self.tracer._root_finished(self)

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "span_id": self.span_id,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
        }
        if self.attrs:
            out["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration_us:.1f}us" if self.end_us is not None \
            else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Creates spans, stamps them with the injected clock, observes every
    finished root into the registry's ``repro_txn_*`` series (the Table-4
    source), and retains up to ``max_roots`` raw root trees for export."""

    __slots__ = ("clock", "max_roots", "roots", "dropped", "started_roots",
                 "finished_roots", "_id", "_txn_us", "_phase_us", "_outcomes")

    def __init__(self, clock: Callable[[], float], registry: MetricsRegistry,
                 max_roots: int = 1000) -> None:
        self.clock = clock
        self.max_roots = max_roots
        self.roots: List[Span] = []
        self.dropped = 0
        self.started_roots = 0
        self.finished_roots = 0
        self._id = 0
        self._txn_us = registry.histogram(
            "repro_txn_us", "transaction response time by type")
        self._phase_us = registry.histogram(
            "repro_txn_phase_us",
            "time per phase span by transaction type (Table 4)")
        self._outcomes = registry.counter(
            "repro_txn_outcomes", "finished transactions by outcome")

    def _next_id(self) -> int:
        self._id += 1
        return self._id

    def start_span(self, name: str,
                   start_us: Optional[float] = None) -> Span:
        self.started_roots += 1
        return Span(self, name, self._next_id(), None,
                    self.clock() if start_us is None else start_us)

    def _root_finished(self, root: Span) -> None:
        # Close any phase child left open by an abort path so its time
        # is still attributed (e.g. a conflict detected mid-write).
        end = root.end_us if root.end_us is not None else root.start_us
        for child in root.children:
            if child.end_us is None:
                child.end_us = end
        self.finished_roots += 1
        txn = str(root.attrs.get("txn", root.name))
        total = root.duration_us
        self._txn_us.observe(total, txn=txn)
        accounted = 0.0
        for child in root.children:
            duration = child.duration_us
            accounted += duration
            self._phase_us.observe(duration, txn=txn, phase=child.name)
        # Whatever the phase spans do not cover is application compute.
        other = total - accounted
        if other > 0.0:
            self._phase_us.observe(other, txn=txn, phase="other")
        self._outcomes.inc(
            txn=txn, outcome=str(root.attrs.get("outcome", "unknown")))
        if len(self.roots) < self.max_roots:
            self.roots.append(root)
        else:
            self.dropped += 1

    def to_dict(self) -> dict:
        return {
            "finished_roots": self.finished_roots,
            "kept": len(self.roots),
            "dropped": self.dropped,
            # Roots still open: a begin() whose StartTransaction raised,
            # or a transaction in flight when the run ended.
            "abandoned": self.started_roots - self.finished_roots,
            "roots": [r.to_dict() for r in self.roots],
        }
