"""The sanitizer: one interceptor, three passes over each observation.

:class:`Sanitizer` is the dispatch interceptor of :mod:`repro.san`.  It
classifies each request once (:func:`~repro.effects.kind_of`) and turns
every data-space store result into one :data:`Observation` per key -- a
single-key request is a batch of one.  Each observation batch then goes
through three passes, each over the whole batch before the next starts
(a put batch may repeat a key):

1. **version chains** -- :func:`repro.san.chain.check_chain` on every
   record read, written or scanned;
2. **GC** -- :class:`repro.san.gcsan.GCChecks` on every successful
   store-conditional write and cell delete, against the shadow as it was
   *before* the write;
3. **the SI fold** -- the checks below, which also fold the observation
   into the independent :class:`~repro.san.shadow.ShadowHistory` this
   sanitizer owns:

* **SI-READ** -- every read returned ``max(V ∩ V*)``: the production
  :meth:`~repro.core.record.VersionedRecord.latest_visible` verdict is
  compared against the shadow's reimplementation of Section 4.2's
  visibility over the raw ``(base, bits)`` snapshot pair.
* **SI-STALE-SC** -- a store-conditional write succeeded although the
  shadow had already observed a newer cell version than the writer's LL
  token: the store's version check cannot have run (a deleted
  ``PutIfVersion`` check surfaces here as a lost update in the making).
* **SI-LOST-UPDATE** -- first-committer-wins: a transaction committed a
  write to a key that a concurrent transaction (not visible in the
  writer's snapshot) had already committed a write for.
* **SI-SNAPSHOT-ACTIVE** -- a start() handed out a snapshot that already
  contains a transaction the shadow still considers active.
* **SI-ABORT-RESIDUE** -- an abort was reported while the store still
  carried one of the transaction's versions (rollback must precede
  ``setAborted``, Section 4.3).

It also builds the SSI-style dependency graph (wr / ww / rw edges) over
the recent committed window; :meth:`Sanitizer.analyze` *reports*
cycles involving anti-dependencies -- write skew, which SI permits --
without ever failing the run.

Strictly observational: the interceptor touches protocol objects only
through read-only accessors (the tier-1 test
``test_sanitizers_leave_the_run_unchanged`` checks that attaching it
changes no digest and no obs snapshot), collects into a
:class:`~repro.san.violations.ViolationLog`, and never raises.

Ordering note: commit-manager completions are processed in the *pre*
phase (at request issue time) while starts register in the *post* phase
(at response time), mirroring the simulated fabric, which executes
manager state at issue time and delays only the response.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro import effects
from repro.core.spaces import DATA_SPACE
from repro.dispatch import DispatchContext, Interceptor, NextFn
from repro.effects import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_SCAN,
    KIND_STORE,
    kind_of,
)
from repro.san.chain import check_chain
from repro.san.gcsan import GCChecks
from repro.san.shadow import (
    ShadowCell,
    ShadowHistory,
    TxnView,
    ref_latest_visible,
    visible_in,
)
from repro.san.violations import ViolationLog

#: One data cell a store request touched: ``(op, key, value, expected,
#: ok, version)``.  ``op`` is ``"read"`` (value: the record or None),
#: ``"write"`` (value: the record written; ``expected`` is None for an
#: unconditional put), ``"delete"`` (a ``DeleteIfVersion``; no value) or
#: ``"scan"`` (a raw scan row).  ``version`` is the cell version the
#: store returned: read, installed, or current after a failed delete.
Observation = Tuple[str, Any, Any, Optional[int], bool, int]


def observations(kind: int, request: Any, result: Any) -> List[Observation]:
    """The data cells ``request`` touched, one observation per key."""
    if kind == KIND_BATCH:
        if request.batch_space != DATA_SPACE:
            return []
        column, versions = result
        keys, values, expected = request.keys, request.values, request.expected
        if values is None:
            return [("read", key, column[i], None, True, versions[i])
                    for i, key in enumerate(keys)]
        if expected is None:
            return [("write", key, values[i], None, True, versions[i])
                    for i, key in enumerate(keys)]
        return [("write", key, values[i], expected[i], column[i],
                 versions[i]) for i, key in enumerate(keys)]
    if request.space != DATA_SPACE:
        return []
    if kind == KIND_SCAN:
        if request.snapshot is not None:
            return []  # pushdown rows are payloads, not version chains
        return [("scan", key, record, None, True, cell_version)
                for key, record, cell_version in result]
    if isinstance(request, effects.Get):
        value, cell_version = result
        return [("read", request.key, value, None, True, cell_version)]
    if isinstance(request, effects.PutIfVersion):
        ok, version = result
        return [("write", request.key, request.value,
                 request.expected_version, ok, version)]
    if isinstance(request, effects.DeleteIfVersion):
        ok, version = result
        return [("delete", request.key, None, request.expected_version,
                 ok, version)]
    return []


class Sanitizer(Interceptor):
    """Shadow-history bookkeeper; runs the chain, GC and SI checks."""

    def __init__(self, log: ViolationLog, serializable: bool = False) -> None:
        self.log = log
        self.shadow = ShadowHistory()
        self.gc = GCChecks(log, self.shadow)
        self.records_checked = 0
        # Under a serializability-promising isolation protocol (WSI/SSI,
        # repro.core.isolation) the dependency analysis escalates
        # write-skew cycles from informational reports to violations:
        # the protocol claimed to prevent them.
        self.serializable = serializable

    # -- the interceptor -------------------------------------------------

    def intercept(self, request: Any, ctx: DispatchContext,
                  next: NextFn) -> Generator[Any, Any, Any]:
        kind = kind_of(request)
        ctx_key = id(ctx)
        if kind == KIND_CM_COMMITTED:
            self._on_commit(request.tid)
        elif kind == KIND_CM_ABORTED:
            self._on_abort(request.tid)
        try:
            result = yield from next(request)
        except BaseException:
            # The request may have half-applied (a batch's groups apply
            # independently); every referenced data cell becomes a blind
            # spot until re-observed.  A columnar read writes nothing.
            if kind == KIND_BATCH and request.is_write \
                    and request.batch_space == DATA_SPACE:
                for key in request.keys:
                    self.shadow.drop(key)
                    self.log.reconcile("batch-error-drop")
            elif kind == KIND_STORE and request.is_write \
                    and request.space == DATA_SPACE:
                self.shadow.drop(request.key)
                self.log.reconcile("store-error-drop")
            raise
        if kind == KIND_CM_START:
            self._on_start(ctx_key, ctx.pn_id, result)
        elif kind <= KIND_SCAN:
            observed = observations(kind, request, result)
            if observed:
                self._check_chains(observed)
                self.gc.check(ctx_key, observed)
                self._fold(ctx_key, observed)
        return result

    def _check_chains(self, observed: List[Observation]) -> None:
        for op, key, value, _expected, _ok, _version in observed:
            if value is not None:
                self.records_checked += 1
                check_chain(self.log, key, value, op)

    def _fold(self, ctx_key: int, observed: List[Observation]) -> None:
        for op, key, value, expected, ok, version in observed:
            if op == "read":
                self._observe_get(ctx_key, key, value, version)
            elif op == "scan":
                self._sync_cell(key, value, version)
            elif expected is None:  # an unconditional put
                self._observe_put(key, value, version)
            elif op == "write":
                self._observe_put_if(ctx_key, key, value, expected, ok,
                                     version)
            elif ok:  # a DeleteIfVersion that removed the cell
                self._observe_delete_if(ctx_key, key, expected)

    # -- transaction lifecycle ------------------------------------------

    def _on_start(self, ctx_key: int, pn_id: int, start: Any) -> None:
        base, bits = start.snapshot.as_pair()
        view = TxnView(start.tid, base, bits, start.lav, start.snapshot,
                       pn_id)
        for active_tid in self.shadow.active:
            if active_tid != start.tid and visible_in(active_tid, base, bits):
                self.log.violation(
                    "SI-SNAPSHOT-ACTIVE",
                    f"start(tid={start.tid}) snapshot contains tid "
                    f"{active_tid}, which is still active",
                    tid=start.tid, active=active_tid,
                )
        if start.lav > base:
            self.log.violation(
                "SI-LAV",
                f"start(tid={start.tid}) lav {start.lav} exceeds own "
                f"snapshot base {base}",
                tid=start.tid, lav=start.lav, base=base,
            )
        displaced = self.shadow.begin(ctx_key, view)
        if displaced is not None:
            self.log.reconcile("ctx-reuse")

    def _on_commit(self, tid: int) -> None:
        shadow = self.shadow
        view = shadow.active.get(tid)
        if view is None:
            self.log.reconcile("unknown-commit")
            return
        if not view.tainted:
            for key, expected in view.writes.items():
                if expected == 0:
                    continue  # fresh insert: no prior version to lose
                for w_tid, _wb, _wbits in shadow.key_writers.get(key, ()):
                    if w_tid != tid and not view.sees(w_tid):
                        self.log.violation(
                            "SI-LOST-UPDATE",
                            f"tid {tid} committed a write to {key!r} "
                            f"although concurrent tid {w_tid} (not in its "
                            f"snapshot) committed a write to the same key "
                            f"first -- first-committer-wins violated",
                            tid=tid, key=key, first_committer=w_tid,
                        )
        shadow.finish(tid, "committed")

    def _on_abort(self, tid: int) -> None:
        shadow = self.shadow
        view = shadow.active.get(tid)
        if view is not None and not view.tainted:
            for key in view.applied:
                sc = shadow.cells.get(key)
                if sc is not None and tid in sc.versions:
                    self.log.violation(
                        "SI-ABORT-RESIDUE",
                        f"tid {tid} reported aborted while its version of "
                        f"{key!r} is still installed; rollback must "
                        f"precede setAborted",
                        tid=tid, key=key,
                    )
        if view is not None:
            shadow.finish(tid, "aborted")
        else:
            self.log.reconcile("unknown-abort")

    # -- storage observations -------------------------------------------

    def _observe_put(self, key: Any, record: Any, cell_version: int) -> None:
        payloads = {v.tid: v.payload for v in record.versions}
        self.shadow.adopt(key, payloads, cell_version)
        self.log.reconcile("unconditional-put")

    def _observe_get(self, ctx_key: int, key: Any, value: Any,
                     cell_version: int) -> None:
        shadow = self.shadow
        view = shadow.current(ctx_key)
        if value is None:
            if shadow.cells.get(key) is not None \
                    and shadow.cells[key].versions:
                shadow.drop(key)
                self.log.reconcile("get-missing")
            if view is not None and not view.tainted:
                view.reads[key] = None
            return
        record = value
        tids = record.version_numbers()
        if view is not None and not view.tainted:
            production = record.latest_visible(view.snapshot_obj)
            production_tid = production.tid if production is not None else None
            reference = ref_latest_visible(tids, view.base, view.bits)
            if production_tid != reference:
                self.log.violation(
                    "SI-READ",
                    f"read of {key!r} by tid {view.tid}: production "
                    f"visibility chose version {production_tid}, the "
                    f"snapshot definition (max(V ∩ V*)) requires "
                    f"{reference} (V={sorted(tids)}, base={view.base})",
                    tid=view.tid, key=key, production=production_tid,
                    reference=reference,
                )
            view.reads[key] = reference
        self._sync_cell(key, record, cell_version)

    def _sync_cell(self, key: Any, record: Any, cell_version: int) -> None:
        shadow = self.shadow
        payloads = {v.tid: v.payload for v in record.versions}
        sc = shadow.cells.get(key)
        if sc is None:
            shadow.adopt(key, payloads, cell_version)
            self.log.reconcile("adopt")
            return
        if cell_version == sc.cell_version:
            if payloads != sc.versions:
                self.log.violation(
                    "SHADOW-DIVERGE",
                    f"cell {key!r} at version {cell_version} holds tids "
                    f"{sorted(payloads)} but the shadow recorded "
                    f"{sorted(sc.versions)} for the same cell version",
                    key=key, cell_version=cell_version,
                )
        elif cell_version > sc.cell_version:
            shadow.adopt(key, payloads, cell_version)
            self.log.reconcile("readopt")
        else:
            # A response observed out of order (read responses are larger
            # than write acks and can overtake on the wire): the shadow is
            # already ahead; the observation is stale but not wrong.
            self.log.reconcile("stale-read")

    def _observe_put_if(self, ctx_key: int, key: Any, record: Any,
                        expected: int, ok: bool, new_version: int) -> None:
        if not ok:
            return
        shadow = self.shadow
        written = {v.tid: v.payload for v in record.versions}
        sc = shadow.cells.get(key)
        view = shadow.current(ctx_key)
        if sc is not None and expected != sc.cell_version:
            if expected > sc.cell_version:
                self.log.reconcile("unobserved-write")
            elif new_version > sc.cell_version:
                # The store accepted an LL token older than a write the
                # shadow already observed land (in service order): the
                # version check cannot have run.  This is the signature
                # of a lost update about to be committed.
                self.log.violation(
                    "SI-STALE-SC",
                    f"PutIfVersion on {key!r} succeeded with expected "
                    f"version {expected} although the cell "
                    f"was already at {sc.cell_version}; the "
                    f"store-conditional version check did not reject a "
                    f"stale LL token",
                    key=key, expected=expected,
                    shadow_version=sc.cell_version,
                    writer=view.tid if view is not None else None,
                )
            else:
                self.log.reconcile("stale-write")
                return
        if view is not None and not view.tainted:
            if view.tid in written:
                view.writes[key] = expected
                if key not in view.applied:
                    view.applied.append(key)
            elif key in view.applied:
                view.applied.remove(key)  # rollback removed our version
        if sc is None or new_version > sc.cell_version:
            shadow.adopt(key, written, new_version)

    def _observe_delete_if(self, ctx_key: int, key: Any,
                           expected: int) -> None:
        shadow = self.shadow
        sc = shadow.cells.get(key)
        if sc is not None and expected != sc.cell_version:
            if expected > sc.cell_version:
                self.log.reconcile("unobserved-write")
            else:
                self.log.violation(
                    "SI-STALE-SC",
                    f"DeleteIfVersion on {key!r} succeeded with expected "
                    f"version {expected} although the cell "
                    f"was already at {sc.cell_version}",
                    key=key, expected=expected,
                    shadow_version=sc.cell_version,
                )
        view = shadow.current(ctx_key)
        if view is not None and key in view.applied:
            view.applied.remove(key)
        # Cell versions restart at 1 after a delete; model "missing".
        shadow.cells[key] = ShadowCell({}, 0)

    # -- SSI dependency analysis (the protocol oracle) -------------------

    def analyze(self) -> List[List[int]]:
        """Build the SSI dependency graph over the recent committed
        window and flag every strongly connected component that contains
        an anti-dependency (rw) edge -- the shape of write skew.  SI
        permits these, so under SI they are informational reports; with
        ``serializable=True`` (deployment runs WSI/SSI) a surviving cycle
        means the enforcing protocol failed and is logged as a violation.
        Returns the list of flagged cycles (each a sorted tid list)."""
        committed = [
            view for view in self.shadow.finished.values()
            if view.outcome == "committed" and not view.tainted
        ]
        edges: Dict[int, Set[int]] = {view.tid: set() for view in committed}
        rw_edges: Set[Tuple[int, int]] = set()
        for a in committed:
            for b in committed:
                if a.tid == b.tid:
                    continue
                for key, read_tid in a.reads.items():
                    if read_tid == b.tid:
                        edges[b.tid].add(a.tid)          # wr: b -> a
                    if key in b.writes and not a.sees(b.tid) \
                            and read_tid != b.tid:
                        edges[a.tid].add(b.tid)          # rw: a -> b
                        rw_edges.add((a.tid, b.tid))
                for key in a.writes:
                    if key in b.writes and b.sees(a.tid):
                        edges[a.tid].add(b.tid)          # ww: a -> b
        cycles: List[List[int]] = []
        for component in _sccs(edges):
            if len(component) < 2:
                continue
            members = set(component)
            has_rw = any(
                x in members and y in members for x, y in rw_edges
            )
            if has_rw:
                cycle = sorted(component)
                cycles.append(cycle)
                if self.serializable:
                    self.log.violation(
                        "SSI-WRITE-SKEW",
                        f"dependency cycle with anti-dependencies among "
                        f"committed tids {cycle} -- write skew leaked "
                        f"through a read-validating isolation protocol",
                        tids=cycle,
                    )
                else:
                    self.log.report(
                        "SSI-WRITE-SKEW",
                        f"dependency cycle with anti-dependencies among "
                        f"committed tids {cycle} -- write skew (permitted "
                        f"under SI, would abort under SSI)",
                        tids=cycle,
                    )
        return cycles


def _sccs(edges: Dict[int, Set[int]]) -> List[List[int]]:
    """Iterative Tarjan: strongly connected components of a small graph."""
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    result: List[List[int]] = []
    counter = [0]

    for root in sorted(edges):
        if root in index_of:
            continue
        work: List[Tuple[int, List[int]]] = [(root, sorted(edges[root]))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            advanced = False
            while pending:
                nxt = pending.pop(0)
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, sorted(edges.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack and index_of[nxt] < low[node]:
                    low[node] = index_of[nxt]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result
