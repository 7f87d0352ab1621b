"""Snapshot-isolation sanitizer (the SI axioms, machine-checked).

:class:`SISanitizer` is a dispatch interceptor that watches every request
a pipeline serves and validates, against the independent
:class:`~repro.san.shadow.ShadowHistory`:

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
the recent committed window; :meth:`SISanitizer.analyze` *reports*
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
from repro.dispatch import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_SCAN,
    KIND_STORE,
    DispatchContext,
    DispatchEnv,
    Interceptor,
    NextFn,
    kind_of,
)
from repro.san.shadow import (
    ShadowCell,
    ShadowHistory,
    TxnView,
    ref_latest_visible,
    visible_in,
)
from repro.san.violations import ViolationLog


class SISanitizer(Interceptor):
    """Shadow-history bookkeeper + SI axiom checker.

    Owns the shared :class:`ShadowHistory`; the GC and version-chain
    sanitizers read the same instance but never mutate it.  Place this
    interceptor *outermost* of the sanitizer trio so its post-phase
    (which folds observed writes into the shadow) runs after the others
    compared the observation against the pre-write shadow state.
    """

    def __init__(self, log: ViolationLog,
                 shadow: Optional[ShadowHistory] = None,
                 serializable: bool = False) -> None:
        self.log = log
        self.shadow = shadow if shadow is not None else ShadowHistory()
        # Under a serializability-promising isolation protocol (WSI/SSI,
        # repro.core.isolation) the dependency analysis escalates
        # write-skew cycles from informational reports to violations:
        # the protocol claimed to prevent them.
        self.serializable = serializable

    def on_attach(self, env: DispatchEnv) -> None:
        # Nothing to wire; attach may run repeatedly (router clones).
        pass

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
        elif kind == KIND_STORE:
            self._observe(ctx_key, request, result)
        elif kind == KIND_BATCH and request.batch_space == DATA_SPACE:
            self._observe_batch(ctx_key, request, result)
        elif kind == KIND_SCAN:
            self._observe_scan(ctx_key, request, result)
        return result

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

    def _observe(self, ctx_key: int, op: Any, result: Any) -> None:
        if getattr(op, "space", None) != DATA_SPACE:
            return
        if isinstance(op, effects.Get):
            value, cell_version = result
            self._observe_get(ctx_key, op.key, value, cell_version)
        elif isinstance(op, effects.PutIfVersion):
            ok, new_version = result
            self._observe_put_if(ctx_key, op.key, op.value,
                                 op.expected_version, ok, new_version)
        elif isinstance(op, effects.DeleteIfVersion):
            self._observe_delete_if(ctx_key, op, result)
        elif isinstance(op, effects.Put):
            self._observe_put(op.key, op.value, result)

    def _observe_batch(self, ctx_key: int, batch: Any, result: Any) -> None:
        """Each key of a data-space batch, as the single-key request it
        stands for."""
        column, versions = result
        values, expected = batch.values, batch.expected
        for position, key in enumerate(batch.keys):
            if values is None:
                self._observe_get(ctx_key, key, column[position],
                                  versions[position])
            elif expected is None:
                self._observe_put(key, values[position], versions[position])
            else:
                self._observe_put_if(
                    ctx_key, key, values[position], expected[position],
                    column[position], versions[position],
                )

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

    def _observe_delete_if(self, ctx_key: int, op: Any, result: Any) -> None:
        ok, _current = result
        if not ok:
            return
        shadow = self.shadow
        key = op.key
        sc = shadow.cells.get(key)
        if sc is not None and op.expected_version != sc.cell_version:
            if op.expected_version > sc.cell_version:
                self.log.reconcile("unobserved-write")
            else:
                self.log.violation(
                    "SI-STALE-SC",
                    f"DeleteIfVersion on {key!r} succeeded with expected "
                    f"version {op.expected_version} although the cell "
                    f"was already at {sc.cell_version}",
                    key=key, expected=op.expected_version,
                    shadow_version=sc.cell_version,
                )
        view = shadow.current(ctx_key)
        if view is not None and key in view.applied:
            view.applied.remove(key)
        # Cell versions restart at 1 after a delete; model "missing".
        shadow.cells[key] = ShadowCell({}, 0)

    def _observe_scan(self, ctx_key: int, op: Any, result: Any) -> None:
        if op.space != DATA_SPACE:
            return
        if op.snapshot is None:
            for key, record, cell_version in result:
                self._sync_cell(key, record, cell_version)
            return
        # Storage-side push-down (Section 5.2): the SN extracted the
        # visible payload itself -- the one place visibility runs outside
        # the PN.  With no filter the shipped payload must be exactly what
        # the shadow's reference visibility picks.
        if op.scan_filter is not None:
            return
        base, bits = op.snapshot.as_pair()
        shadow = self.shadow
        for key, payload, cell_version in result:
            sc = shadow.cells.get(key)
            if sc is None or sc.cell_version != cell_version:
                continue  # shadow not in sync for this cell: no verdict
            reference = ref_latest_visible(sc.versions.keys(), base, bits)
            if reference is None or sc.versions[reference] != payload:
                self.log.violation(
                    "SI-SCAN-VISIBILITY",
                    f"pushdown scan shipped a payload for {key!r} that is "
                    f"not the snapshot-visible version (reference tid "
                    f"{reference})",
                    key=key, reference=reference,
                )

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
