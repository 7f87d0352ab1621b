"""Yield-point interleaving and typestate analysis.

Every ``yield`` of an effect in protocol code is a preemption point:
the kernel may run any other PN/CM/SN coroutine before the result comes
back.  This module turns that scheduling model into static checks:

* **Shared footprints** -- the extraction pass records every shared
  -state touch (reads and writes through attribute chains);
  :class:`AtomicAnalysis` resolves those chains against the call graph's
  type evidence and exposes, per function, which shared footprints it
  reads and writes, propagated through ``yield from`` chains.
* **A path-sensitive walker** (:class:`_FunctionWalker`) re-analyzes
  live function ASTs: it tracks which locals were derived from data read
  before the current segment (staleness), which guards tests use them,
  which shared collections are structurally mutated on both sides of a
  yield, and the commit/abort typestate of every transaction-typed
  receiver.  Its findings feed the RA rule family in
  :mod:`repro.lint.atomic`.

The analysis follows the repo's lint policy -- no finding over
speculation.  Receivers that do not resolve through explicit type
evidence produce no footprint; conditional LL/SC writes
(``PutIfVersion`` / ``DeleteIfVersion``) are the *sanctioned* way to
act on stale data and are never reported as guarded acts.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.callgraph import CallGraph, Node
from repro.lint.flow.summary import ATOMIC_MUTATORS
from repro.lint.index import (
    ModuleSummary,
    Symbol,
    in_prefixes,
    name_ref_of,
    receiver_steps,
    walk_functions,
)

#: Classes whose instances are shared between coroutines: attributes of
#: these (and their subclasses) are shared-state footprints.  Per-txn
#: objects (Transaction's private cache) and monotonic stats holders are
#: deliberately absent.
SHARED_CLASSES: Tuple[Symbol, ...] = (
    ("repro.core.processing_node", "ProcessingNode"),
    ("repro.core.commit_manager", "CommitManager"),
    ("repro.core.buffers", "BufferingStrategy"),
    ("repro.core.txlog", "TransactionLog"),
    ("repro.core.isolation.validation", "CommitValidator"),
    ("repro.store.cluster", "StorageCluster"),
    ("repro.store.node", "StorageNode"),
    ("repro.store.node", "PartitionStore"),
    ("repro.store.management", "ManagementNode"),
    ("repro.index.btree", "DistributedBTree"),
    ("repro.index.btree", "IndexCache"),
    ("repro.store.partition", "PartitionMap"),
)

#: Transaction lifecycle typestate (RA004/RA005).
TXN_CLASSES: Tuple[Symbol, ...] = (
    ("repro.core.transaction", "Transaction"),
)
#: Callables whose return value is a live (RUNNING) transaction.
TXN_FACTORIES: Tuple[Node, ...] = (
    ("repro.core.processing_node", "ProcessingNode.begin"),
)
FINISHING_METHODS = frozenset({"commit", "abort", "_finish_abort"})
#: Finishers that never return normally (always raise TransactionAborted):
#: statements after them are dead on that path.
NORETURN_FINISHERS = frozenset({"_finish_abort"})
USING_METHODS = frozenset({
    "read", "read_many", "read_for_update",
    "insert", "update", "delete",
})

#: Unconditional store-write effects (RA001 guarded acts).  The LL/SC
#: conditional forms (PutIfVersion/DeleteIfVersion) are the protocol's
#: correct answer to staleness and never count.
WRITE_EFFECTS: Tuple[Symbol, ...] = (
    ("repro.effects", "Put"),
    ("repro.effects", "Delete"),
)
REPORT_ABORTED: Symbol = ("repro.effects", "ReportAborted")
TXN_STATE: Symbol = ("repro.core.transaction", "TxnState")

#: Packages where the interleaving rules RA001-RA003 apply (protocol
#: code).  The typestate rules RA004/RA005 run everywhere.
ATOMIC_PACKAGES: Tuple[str, ...] = (
    "repro.core", "repro.store", "repro.index", "repro.sql",
)

#: Invariant pairs (RA003): two attributes of one shared class that
#: must never be observed half-updated -- all writes to both members in
#: one function must land in the same yield segment.
INVARIANT_PAIRS: Tuple[Tuple[Symbol, str, str], ...] = (
    (("repro.core.commit_manager", "CommitManager"),
     "_active_base", "_active_pn"),
    (("repro.core.commit_manager", "CommitManager"),
     "completed", "_next_stripe"),
    (("repro.core.buffers", "SharedBufferVersionSync"),
     "_entries", "_unit_members"),
)

_WRITE_KINDS = ("set", "aug", "sub", "del", "call")
#: Structural collection mutations (RA002): subscript stores/deletes.
_STRUCTURAL_KINDS = ("sub", "del")

#: One raw finding: (line, rule code, message).
RawFinding = Tuple[int, str, str]


class _Taint:
    """Provenance of a local's value: the yield segment it was read in,
    the source line, and a human-readable origin for witnesses."""

    __slots__ = ("seg", "line", "origin")

    def __init__(self, seg: int, line: int, origin: str) -> None:
        self.seg = seg
        self.line = line
        self.origin = origin


class _Guard:
    """An active stale-guard: an ``if``/``while`` test at ``line`` that
    used locals whose taints predate the current segment."""

    __slots__ = ("line", "stale")

    def __init__(self, line: int,
                 stale: List[Tuple[str, _Taint]]) -> None:
        self.line = line
        self.stale = stale


def _has_yield(node: ast.AST) -> bool:
    """True if the subtree contains a preemption point (own body only --
    nested defs run on their own schedule)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return False


def _oldest(*taints: Optional[_Taint]) -> Optional[_Taint]:
    """The stalest (lowest-segment) taint of the inputs, if any."""
    best: Optional[_Taint] = None
    for taint in taints:
        if taint is not None and (best is None or taint.seg < best.seg):
            best = taint
    return best


class AtomicAnalysis:
    """Project-wide atomic facts: shared-footprint resolution,
    ReportAborted reachability, transaction-parameter typestate
    summaries, and the per-module walker cache."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._shared: Dict[Symbol, bool] = {}
        self._txn: Dict[Symbol, bool] = {}
        self._touch_cache: Dict[Node, Tuple[Set[str], Set[str]]] = {}
        self._yf_cache: Dict[Node, Tuple[Set[str], Set[str]]] = {}
        self.report_aborted: Set[Node] = self._compute_report_aborted()
        self.txn_summaries: Dict[Node, Dict[str, Set[str]]] = \
            self._compute_txn_summaries()
        self._module_cache: Dict[str, List[RawFinding]] = {}

    # -- classification ----------------------------------------------------

    def is_shared(self, symbol: Optional[Symbol]) -> bool:
        if symbol is None:
            return False
        cached = self._shared.get(symbol)
        if cached is None:
            cached = any(self.graph.is_subclass(symbol, base)
                         for base in SHARED_CLASSES)
            self._shared[symbol] = cached
        return cached

    def is_txn_class(self, symbol: Optional[Symbol]) -> bool:
        if symbol is None:
            return False
        cached = self._txn.get(symbol)
        if cached is None:
            cached = any(self.graph.is_subclass(symbol, base)
                         for base in TXN_CLASSES)
            self._txn[symbol] = cached
        return cached

    def footprint_of(self, module: str, info: Dict[str, Any],
                     chain: Sequence[str],
                     attr: str) -> Optional[Tuple[Symbol, str]]:
        """Resolve an owner chain + attribute to a shared footprint
        ``(owning class, attr)``, or None without shared evidence."""
        if not chain:
            return None
        entry = self.graph.eval_chain(module, info, chain[0],
                                      list(chain[1:]))
        if entry is None or entry.cls is None:
            return None
        if not self.is_shared(entry.cls):
            return None
        return entry.cls, attr

    @staticmethod
    def footprint_name(footprint: Tuple[Symbol, str]) -> str:
        return f"{footprint[0][1]}.{footprint[1]}"

    def pair_index(self, footprint: Tuple[Symbol, str]) -> Optional[int]:
        """Index into INVARIANT_PAIRS if this footprint is a member."""
        cls, attr = footprint
        for i, (pair_cls, a1, a2) in enumerate(INVARIANT_PAIRS):
            if attr in (a1, a2) and self.graph.is_subclass(cls, pair_cls):
                return i
        return None

    # -- shared footprints of whole functions ------------------------------

    def node_touches(self, node: Node) -> Tuple[Set[str], Set[str]]:
        """Resolved (reads, writes) shared-footprint names of one
        function, from its touch records."""
        cached = self._touch_cache.get(node)
        if cached is not None:
            return cached
        reads: Set[str] = set()
        writes: Set[str] = set()
        info = self.graph.function_info(node)
        if info is not None:
            for rec in info.get("touch", []):
                chain = list(rec.get("c", []))
                footprint = self.footprint_of(node[0], info, chain,
                                              rec.get("a", ""))
                if footprint is None:
                    continue
                name = self.footprint_name(footprint)
                if rec.get("k") == "r":
                    reads.add(name)
                else:
                    writes.add(name)
        self._touch_cache[node] = (reads, writes)
        return reads, writes

    def yf_touches(self, node: Node) -> Tuple[Set[str], Set[str]]:
        """(reads, writes) including everything delegated-to through
        ``yield from`` chains -- the footprints a single preemption point
        may observe or disturb."""
        cached = self._yf_cache.get(node)
        if cached is not None:
            return cached
        reads: Set[str] = set()
        writes: Set[str] = set()
        seen: Set[Node] = set()
        stack: List[Node] = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            direct = self.node_touches(current)
            reads.update(direct[0])
            writes.update(direct[1])
            stack.extend(self.graph.yf_edges.get(current, ()))
        self._yf_cache[node] = (reads, writes)
        return reads, writes

    # -- ReportAborted reachability (RA005) --------------------------------

    def _compute_report_aborted(self) -> Set[Node]:
        """Generators from which a ``yield effects.ReportAborted(...)``
        is reachable through ``yield from`` delegation."""
        direct: Set[Node] = set()
        for node, yields in self.graph.yielded_classes.items():
            if any(symbol == REPORT_ABORTED for _line, symbol in yields):
                direct.add(node)
        changed = True
        while changed:
            changed = False
            for src, dsts in self.graph.yf_edges.items():
                if src not in direct and any(d in direct for d in dsts):
                    direct.add(src)
                    changed = True
        return direct

    # -- transaction parameter summaries (RA004) ---------------------------

    def _txn_params(self, node: Node,
                    info: Dict[str, Any]) -> Set[str]:
        """Parameter names of ``node`` that are transaction-typed by
        annotation (plus ``self`` inside Transaction subclasses)."""
        names: Set[str] = set()
        for pname, pinfo in info.get("params", {}).items():
            entry = self.graph.entry_from_info(node[0], pinfo)
            if self.is_txn_class(entry.cls):
                names.add(pname)
        cls_name = info.get("cls")
        if cls_name is not None and \
                self.is_txn_class((node[0], cls_name)):
            names.add("self")
        return names

    def _compute_txn_summaries(self) -> Dict[Node, Dict[str, Set[str]]]:
        """Fixpoint: per function, which transaction-typed parameters it
        (transitively) finishes or uses.  Used by the walker to extend
        the typestate contract across the call graph."""
        summaries: Dict[Node, Dict[str, Set[str]]] = {}
        infos: Dict[Node, Dict[str, Any]] = {}
        params: Dict[Node, Set[str]] = {}
        for module, flow in self.graph.flows.items():
            for qualname, info in flow.functions.items():
                node = (module, qualname)
                infos[node] = info
                candidates = self._txn_params(node, info)
                params[node] = candidates
                summaries[node] = {"fin": set(), "use": set()}
        changed = True
        while changed:
            changed = False
            for node, info in infos.items():
                candidates = params[node]
                if not candidates:
                    continue
                summary = summaries[node]
                for call in info.get("calls", []):
                    changed |= self._apply_call(node, info, call,
                                                candidates, summary,
                                                summaries)
        return summaries

    def _apply_call(self, node: Node, info: Dict[str, Any],
                    call: Dict[str, Any], candidates: Set[str],
                    summary: Dict[str, Set[str]],
                    summaries: Dict[Node, Dict[str, Set[str]]]) -> bool:
        changed = False
        if (call.get("k") == "attr" and not call.get("steps")
                and call.get("root") in candidates):
            root = call["root"]
            if call.get("attr") in FINISHING_METHODS and \
                    root not in summary["fin"]:
                summary["fin"].add(root)
                changed = True
            if call.get("attr") in USING_METHODS and \
                    root not in summary["use"]:
                summary["use"].add(root)
                changed = True
        args = call.get("args")
        if not args:
            return changed
        for target in self.graph.resolve_call_quiet(
                node[0], node[1], info, call):
            tinfo = self.graph.function_info(target)
            tsummary = summaries.get(target)
            if tinfo is None or tsummary is None:
                continue
            pnames = list(tinfo.get("pnames", []))
            if "." in target[1] and pnames and \
                    pnames[0] in ("self", "cls"):
                pnames = pnames[1:]
            for arg_name, pname in zip(args, pnames):
                if arg_name is None or arg_name not in candidates:
                    continue
                if pname in tsummary["fin"] and \
                        arg_name not in summary["fin"]:
                    summary["fin"].add(arg_name)
                    changed = True
                if pname in tsummary["use"] and \
                        arg_name not in summary["use"]:
                    summary["use"].add(arg_name)
                    changed = True
        return changed

    # -- per-module analysis (live trees) ----------------------------------

    def module_findings(self, summary: ModuleSummary,
                        tree: ast.Module) -> List[RawFinding]:
        """All RA findings for one live module, walker-cached."""
        cached = self._module_cache.get(summary.module)
        if cached is not None:
            return cached
        flow = self.graph.flows.get(summary.module)
        findings: List[RawFinding] = []
        if flow is not None:
            interleaving = in_prefixes(summary.module, ATOMIC_PACKAGES)

            for fn, _class_name, qualname in walk_functions(tree):
                info = flow.functions.get(qualname)
                if info is not None:
                    walker = _FunctionWalker(
                        self, summary, qualname, info, fn)
                    walker.run(interleaving)
                    findings.extend(walker.findings)
            if in_prefixes(summary.module, ("repro",)):
                findings.extend(
                    self._validator_findings(summary.module, flow))
        findings.sort()
        self._module_cache[summary.module] = findings
        return findings

    def _validator_findings(self, module: str,
                            flow: Any) -> List[RawFinding]:
        """RA005(b): a class that registers commit intents with a
        validator must also wire the abort path (``on_aborted``), or
        the validator's in-flight window leaks aborted writers.  Library
        code only: a test driving a validator owns no abort path."""
        findings: List[RawFinding] = []
        by_class: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        for qualname, info in flow.functions.items():
            cls = info.get("cls")
            if cls is not None and qualname.startswith(cls + "."):
                by_class.setdefault(cls, []).append((qualname, info))
        for cls, methods in sorted(by_class.items()):
            registers: List[Tuple[int, Tuple[str, ...]]] = []
            releases: Set[Tuple[str, ...]] = set()
            for _qualname, info in methods:
                for call in info.get("calls", []):
                    if call.get("k") != "attr":
                        continue
                    chain = (call.get("root", ""),
                             *call.get("steps", []))
                    if call.get("attr") == "validate_and_register":
                        registers.append((call.get("line", 0), chain))
                    elif call.get("attr") == "on_aborted":
                        releases.add(chain)
            for line, chain in registers:
                if chain not in releases:
                    receiver = ".".join(chain)
                    findings.append((line, "RA005", (
                        f"`{cls}` registers commit intents via "
                        f"`{receiver}.validate_and_register(...)` but no "
                        f"method of the class ever calls "
                        f"`{receiver}.on_aborted(...)`; aborted "
                        f"transactions would stay in the validator's "
                        f"in-flight window forever"
                    )))
        return findings


class _FunctionWalker:
    """Path-sensitive walk of one live function body.

    Tracks the lexical yield-segment counter, per-local taints, active
    stale guards (including early-exit residual guards), shared-footprint
    read/write events, invariant-pair writes, and transaction typestate.
    Loops containing a preemption point are traversed twice so
    iteration-order staleness (element bound before the yield, tested
    after it) is observed.  Branch joins are optimistic -- the freshest
    binding wins -- matching the repo's no-finding-over-speculation bar.
    """

    _LOOP_PASSES = 2

    def __init__(self, analysis: AtomicAnalysis, summary: ModuleSummary,
                 qualname: str, info: Dict[str, Any],
                 func: ast.AST) -> None:
        self.an = analysis
        self.summary = summary
        self.module = summary.module
        self.qualname = qualname
        self.info = info
        self.func = func
        self.findings: List[RawFinding] = []
        self._keys: Set[Tuple[str, int, str]] = set()
        self.seg = 0
        self.order = 0
        self.yield_lines: Dict[int, int] = {}
        self.names: Dict[str, _Taint] = {}
        #: Typestate per receiver key (local name or dotted self-chain):
        #: [state, finish_line, finisher]; state in run/fin/maybe.
        self.txn: Dict[str, List[Any]] = {}
        self.interleaving = True
        #: fp name -> [(order, seg, line)] structural mutations (RA002).
        self.mutations: Dict[str, List[Tuple[int, int, int]]] = {}
        #: fp name -> [(order, seg)] reads (RA002 recheck evidence).
        self.reads: Dict[str, List[Tuple[int, int]]] = {}
        #: pair index -> attr -> [(seg, line)] (RA003).
        self.pairs: Dict[int, Dict[str, List[Tuple[int, int]]]] = {}
        #: RA005(a): (order, line, receiver) obligations / discharge orders.
        self.obligations: List[Tuple[int, int, str]] = []
        self.discharges: List[int] = []
        self._guards: List[_Guard] = []
        self._globals: Set[str] = set()
        self._noreturn = False
        for pname, pinfo in info.get("params", {}).items():
            entry = analysis.graph.entry_from_info(self.module, pinfo)
            if analysis.is_txn_class(entry.cls):
                self.txn[pname] = ["run", 0, ""]
        cls_name = info.get("cls")
        if cls_name is not None and \
                analysis.is_txn_class((self.module, cls_name)):
            self.txn["self"] = ["run", 0, ""]

    # -- driver ------------------------------------------------------------

    def run(self, interleaving: bool) -> None:
        self.interleaving = interleaving
        body = list(getattr(self.func, "body", []))
        self._exec_block(body, [])
        if interleaving:
            self._finish_mutations()
            self._finish_pairs()
        self._finish_obligations()

    def _emit(self, line: int, code: str, message: str) -> None:
        key = (code, line, message[:60])
        if key in self._keys:
            return
        self._keys.add(key)
        self.findings.append((line, code, message))

    # -- finish passes -----------------------------------------------------

    def _finish_mutations(self) -> None:
        """RA002: structural mutations of one shared collection in two
        different segments with no re-read in the later segment."""
        for fp, events in sorted(self.mutations.items()):
            events.sort()
            reads = self.reads.get(fp, [])
            for (o1, s1, l1), (o2, s2, l2) in zip(events, events[1:]):
                if s2 <= s1:
                    continue
                rechecked = any(rs == s2 and ro < o2 for ro, rs in reads)
                if rechecked:
                    continue
                yline = self.yield_lines.get(s1 + 1, l1)
                self._emit(l2, "RA002", (
                    f"shared collection `{fp}` is structurally mutated "
                    f"at line {l1} (segment {s1}) and again at line "
                    f"{l2} (segment {s2}) across the preemption point "
                    f"at line {yline}, with no re-read of `{fp}` after "
                    f"the yield; an interleaved coroutine may have "
                    f"changed it -- re-read (or generation-check) the "
                    f"collection after the yield"
                ))
                break

    def _finish_pairs(self) -> None:
        """RA003: both members of a declared invariant pair written, but
        some segment updates only one of them."""
        for pid, members in sorted(self.pairs.items()):
            _cls, a1, a2 = INVARIANT_PAIRS[pid]
            first = members.get(a1)
            second = members.get(a2)
            if not first or not second:
                continue
            segs1 = {seg for seg, _line in first}
            segs2 = {seg for seg, _line in second}
            for seg in sorted(segs1 ^ segs2):
                events = first if seg in segs1 else second
                lone = a1 if seg in segs1 else a2
                other = a2 if seg in segs1 else a1
                line = min(ln for s, ln in events if s == seg)
                yline = self.yield_lines.get(seg, line) if seg else \
                    self.yield_lines.get(1, line)
                self._emit(line, "RA003", (
                    f"invariant pair (`{a1}`, `{a2}`) of "
                    f"`{_cls[1]}` is torn across a yield: `{lone}` is "
                    f"updated in segment {seg} but `{other}` is not "
                    f"(preemption point at line {yline}); an "
                    f"interleaved coroutine can observe the pair "
                    f"half-updated -- move both writes to the same "
                    f"side of the yield"
                ))
                break

    def _finish_obligations(self) -> None:
        """RA005(a): every ``.state = TxnState.ABORTED`` must be
        followed by a ReportAborted delivery on the same path."""
        for order, line, receiver in self.obligations:
            if any(d > order for d in self.discharges):
                continue
            self._emit(line, "RA005", (
                f"`{receiver}.state` is set to TxnState.ABORTED at line "
                f"{line} but no `yield effects.ReportAborted(...)` (or "
                f"delegation that reaches one) follows in "
                f"`{self.qualname}`; the commit manager would keep the "
                f"transaction in its active window forever"
            ))

    # -- statement execution -----------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt],
                    guards: List[_Guard]) -> Optional[str]:
        active = list(guards)
        for stmt in stmts:
            result = self._exec_stmt(stmt, active)
            if result is not None:
                return result
        return None

    def _exec_stmt(self, stmt: ast.stmt,
                   guards: List[_Guard]) -> Optional[str]:
        self._noreturn = False
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, guards, None)
            return "return" if self._noreturn else None
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value, guards, None)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, taint, guards)
            return None
        if isinstance(stmt, ast.AnnAssign):
            taint = self._eval(stmt.value, guards, None) \
                if stmt.value is not None else None
            self._assign_target(stmt.target, stmt.value, taint, guards,
                                annotation=stmt.annotation)
            return None
        if isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value, guards, None)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                combined = _oldest(self.names.get(name), taint)
                if combined is not None:
                    self.names[name] = combined
                if name in self._globals:
                    self._shared_write(
                        f"{self.module}.{name}", None, "aug",
                        stmt.lineno, guards)
            else:
                self._write_target(stmt.target, None, guards,
                                   stmt.lineno, kind="aug")
            return None
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, guards)
        if isinstance(stmt, (ast.For, ast.While)):
            return self._exec_loop(stmt, guards)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, guards)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self._eval(item.context_expr, guards, None)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(item.optional_vars.id, None, taint)
            return self._exec_block(stmt.body, guards)
        if isinstance(stmt, ast.Return):
            self._eval(stmt.value, guards, None)
            return "return"
        if isinstance(stmt, ast.Raise):
            self._eval(stmt.exc, guards, None)
            return "return"
        if isinstance(stmt, ast.Break):
            return "break"
        if isinstance(stmt, ast.Continue):
            return "continue"
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._write_target(target, None, guards,
                                       stmt.lineno, kind="del")
            return None
        if isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
            return None
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, guards, None)
            return None
        return None

    def _exec_if(self, stmt: ast.If,
                 guards: List[_Guard]) -> Optional[str]:
        used: List[Tuple[str, _Taint]] = []
        self._eval(stmt.test, guards, used)
        guard = self._make_guard(stmt.test.lineno
                                 if hasattr(stmt.test, "lineno")
                                 else stmt.lineno, used)
        inner = guards + [guard] if guard is not None else list(guards)
        snap_names = dict(self.names)
        snap_txn = {k: list(v) for k, v in self.txn.items()}
        r_body = self._exec_block(stmt.body, inner)
        body_names, body_txn = self.names, self.txn
        self.names = dict(snap_names)
        self.txn = {k: list(v) for k, v in snap_txn.items()}
        r_else: Optional[str] = None
        if stmt.orelse:
            r_else = self._exec_block(stmt.orelse, inner)
        else_names, else_txn = self.names, self.txn
        self._join(body_names, body_txn, r_body,
                   else_names, else_txn, r_else)
        if guard is not None and r_body is not None and not stmt.orelse:
            # Early-exit guard: the test's staleness keeps guarding the
            # fall-through path until the stale local is rebound.
            guards.append(guard)
        return None

    def _join(self, a_names: Dict[str, _Taint], a_txn: Dict[str, List[Any]],
              r_a: Optional[str],
              b_names: Dict[str, _Taint], b_txn: Dict[str, List[Any]],
              r_b: Optional[str]) -> None:
        if r_a is not None and r_b is None:
            self.names, self.txn = b_names, b_txn
            return
        if r_b is not None and r_a is None:
            self.names, self.txn = a_names, a_txn
            return
        names: Dict[str, _Taint] = {}
        for name in set(a_names) & set(b_names):
            ta, tb = a_names[name], b_names[name]
            names[name] = ta if ta.seg >= tb.seg else tb
        txn: Dict[str, List[Any]] = {}
        for key in set(a_txn) & set(b_txn):
            if a_txn[key][0] == b_txn[key][0]:
                txn[key] = list(a_txn[key])
        self.names, self.txn = names, txn

    def _exec_loop(self, stmt: ast.stmt,
                   guards: List[_Guard]) -> Optional[str]:
        passes = self._LOOP_PASSES if _has_yield(stmt) else 1
        for _ in range(passes):
            inner: List[_Guard] = list(guards)
            if isinstance(stmt, ast.While):
                used: List[Tuple[str, _Taint]] = []
                self._eval(stmt.test, guards, used)
                guard = self._make_guard(stmt.lineno, used)
                if guard is not None:
                    inner.append(guard)
            else:
                assert isinstance(stmt, ast.For)
                taint = self._eval(stmt.iter, guards, None)
                self._bind_loop_target(stmt.target, taint)
            self._exec_block(stmt.body, inner)
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            self._exec_block(orelse, guards)
        return None

    def _bind_loop_target(self, target: ast.expr,
                          taint: Optional[_Taint]) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, None, taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, taint)

    def _exec_try(self, stmt: ast.Try,
                  guards: List[_Guard]) -> Optional[str]:
        snap_txn = {k: list(v) for k, v in self.txn.items()}
        r_body = self._exec_block(stmt.body, guards)
        if r_body is None and stmt.orelse:
            r_body = self._exec_block(stmt.orelse, guards)
        body_txn = {k: list(v) for k, v in self.txn.items()}
        survivors: List[Dict[str, List[Any]]] = []
        if r_body is None:
            survivors.append(body_txn)
        for handler in stmt.handlers:
            # The handler may run after any prefix of the body: only
            # typestates the body did not change are trustworthy.
            self.txn = {
                k: list(v) for k, v in snap_txn.items()
                if k in body_txn and body_txn[k][0] == v[0]
            }
            if handler.name is not None:
                self.names.pop(handler.name, None)
            r_handler = self._exec_block(handler.body, guards)
            if r_handler is None:
                survivors.append({k: list(v)
                                  for k, v in self.txn.items()})
        if survivors:
            joined = survivors[0]
            for other in survivors[1:]:
                joined = {
                    k: v for k, v in joined.items()
                    if k in other and other[k][0] == v[0]
                }
            self.txn = joined
        else:
            self.txn = {}
        if stmt.finalbody:
            r_final = self._exec_block(stmt.finalbody, guards)
            if r_final is not None:
                return r_final
        if not survivors and not stmt.finalbody:
            return "return"
        return None

    # -- binding and writes ------------------------------------------------

    def _make_guard(self, line: int,
                    used: List[Tuple[str, _Taint]]) -> Optional[_Guard]:
        stale: List[Tuple[str, _Taint]] = []
        seen: Set[str] = set()
        for name, taint in used:
            if taint.seg < self.seg and name not in seen:
                seen.add(name)
                stale.append((name, taint))
        if not stale:
            return None
        guard = _Guard(line, stale)
        self._guards.append(guard)
        return guard

    def _assign_target(self, target: ast.expr, value: Optional[ast.expr],
                       taint: Optional[_Taint], guards: List[_Guard],
                       annotation: Optional[ast.expr] = None) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self._shared_write(f"{self.module}.{target.id}", None,
                                   "set", target.lineno, guards)
            self._bind(target.id, value, taint, annotation)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                for sub_t, sub_v in zip(target.elts, value.elts):
                    self._assign_target(sub_t, sub_v, taint, guards)
            else:
                for sub_t in target.elts:
                    self._assign_target(sub_t, None, taint, guards)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, None, taint, guards)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._write_target(target, value, guards,
                               getattr(target, "lineno", 0))

    def _bind(self, name: str, value: Optional[ast.expr],
              taint: Optional[_Taint],
              annotation: Optional[ast.expr] = None) -> None:
        # Rebinding dissolves any guard conditioned on the old value.
        for guard in self._guards:
            if guard.stale:
                guard.stale = [(n, t) for n, t in guard.stale
                               if n != name]
        if taint is not None:
            self.names[name] = taint
        else:
            self.names.pop(name, None)
        self._bind_txn(name, value, annotation)

    def _bind_txn(self, name: str, value: Optional[ast.expr],
                  annotation: Optional[ast.expr]) -> None:
        if annotation is not None:
            ref = name_ref_of(annotation) or (
                ("name", annotation.value)
                if isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)
                and annotation.value.isidentifier() else None)
            if self.an.is_txn_class(self.summary.resolve_ref(ref)):
                self.txn[name] = ["run", 0, ""]
                return
        if isinstance(value, (ast.Yield, ast.YieldFrom, ast.Await)):
            value = value.value
        if isinstance(value, ast.Name):
            if value.id in self.txn:
                self.txn[name] = list(self.txn[value.id])
                return
        elif isinstance(value, ast.Attribute):
            root, steps = receiver_steps(value.value)
            if root is not None:
                chain_key = ".".join([root] + steps + [value.attr])
                if chain_key in self.txn:
                    self.txn[name] = list(self.txn[chain_key])
                    return
                entry = self.an.graph.eval_chain(
                    self.module, self.info, root, steps + [value.attr])
                if entry is not None and \
                        self.an.is_txn_class(entry.cls):
                    self.txn[name] = ["run", 0, ""]
                    return
        elif isinstance(value, ast.Call):
            desc = self._desc_of(value)
            if desc is not None:
                targets = self.an.graph.resolve_call_quiet(
                    self.module, self.qualname, self.info, desc)
                if any(t in TXN_FACTORIES for t in targets):
                    self.txn[name] = ["run", 0, ""]
                    return
        self.txn.pop(name, None)

    def _write_target(self, target: ast.expr, value: Optional[ast.expr],
                      guards: List[_Guard], line: int,
                      kind: str = "set") -> None:
        node: ast.expr = target
        while isinstance(node, ast.Subscript):
            self._eval(node.slice, guards, None)
            node = node.value
            if kind == "set":
                kind = "sub"
        if isinstance(node, ast.Name):
            if kind in _STRUCTURAL_KINDS and node.id in self._globals:
                self._shared_write(f"{self.module}.{node.id}", None,
                                   kind, line, guards)
            return
        if not isinstance(node, ast.Attribute):
            return
        root, steps = receiver_steps(node.value)
        if root is None:
            return
        attr = node.attr
        self._check_abort_obligation(root, steps, attr, value, line)
        footprint = self.an.footprint_of(self.module, self.info,
                                         [root] + steps, attr)
        if footprint is None:
            return
        self._shared_write(self.an.footprint_name(footprint),
                           footprint, kind, line, guards)

    def _shared_write(self, fp_name: str,
                      footprint: Optional[Tuple[Symbol, str]],
                      kind: str, line: int,
                      guards: List[_Guard]) -> None:
        if not self.interleaving:
            return
        self.order += 1
        if kind in _STRUCTURAL_KINDS:
            self.mutations.setdefault(fp_name, []).append(
                (self.order, self.seg, line))
        if footprint is not None:
            pid = self.an.pair_index(footprint)
            if pid is not None:
                self.pairs.setdefault(pid, {}).setdefault(
                    footprint[1], []).append((self.seg, line))
        if kind != "call":
            self._act(line, f"write to shared `{fp_name}`", guards)

    def _act(self, line: int, desc: str, guards: List[_Guard]) -> None:
        """RA001: an unconditional shared write under a stale guard."""
        if not self.interleaving:
            return
        for guard in guards:
            if not guard.stale:
                continue
            name, taint = guard.stale[0]
            yline = self.yield_lines.get(taint.seg + 1, taint.line)
            self._emit(line, "RA001", (
                f"{desc} at line {line} is guarded by the test at line "
                f"{guard.line} on `{name}`, whose value was read "
                f"{taint.origin} (segment {taint.seg}) -- before the "
                f"preemption point at line {yline} -- and never "
                f"re-read; an interleaved coroutine can invalidate the "
                f"check between the yield and the write.  Re-read "
                f"after the yield or use a conditional "
                f"PutIfVersion/DeleteIfVersion write"
            ))
            return

    def _check_abort_obligation(self, root: str, steps: List[str],
                                attr: str, value: Optional[ast.expr],
                                line: int) -> None:
        """RA004/RA005(a): `<txn>.state = TxnState.ABORTED/COMMITTED`
        is the transaction's finish event -- it releases the snapshot
        (typestate) and, for ABORTED, obliges a ReportAborted."""
        if attr != "state" or not isinstance(value, ast.Attribute) or \
                value.attr not in ("ABORTED", "COMMITTED"):
            return
        base_ref = name_ref_of(value.value)
        if self.summary.resolve_ref(base_ref) != TXN_STATE:
            return
        receiver = ".".join([root] + steps)
        is_txn = receiver in self.txn or (
            root == "self" and not steps and "self" in self.txn)
        if not is_txn:
            entry = self.an.graph.eval_chain(self.module, self.info,
                                             root, steps)
            is_txn = entry is not None and \
                self.an.is_txn_class(entry.cls)
        if not is_txn:
            return
        self._txn_finish(receiver, f"state = TxnState.{value.attr}",
                         line)
        if value.attr == "ABORTED":
            self.order += 1
            self.obligations.append((self.order, line, receiver))

    # -- expression evaluation ---------------------------------------------

    def _bump(self, line: int) -> None:
        self.seg += 1
        self.yield_lines[self.seg] = line

    def _effect_symbol(self,
                       value: Optional[ast.expr]) -> Optional[Symbol]:
        if isinstance(value, ast.Call):
            return self.summary.resolve_ref(name_ref_of(value.func))
        return None

    def _desc_of(self, call: ast.Call) -> Optional[Dict[str, Any]]:
        func = call.func
        if isinstance(func, ast.Name):
            return {"k": "name", "fn": func.id, "line": call.lineno}
        if isinstance(func, ast.Attribute):
            root, steps = receiver_steps(func.value)
            if root is None:
                return None
            return {"k": "attr", "root": root, "steps": steps,
                    "attr": func.attr, "line": call.lineno}
        if isinstance(func, ast.Subscript):
            table = name_ref_of(func.value)
            if table is not None:
                return {"k": "table", "table": list(table),
                        "line": call.lineno}
        return None

    def _read_event(self, fp_name: str) -> _Taint:
        self.order += 1
        self.reads.setdefault(fp_name, []).append((self.order, self.seg))
        return _Taint(self.seg, 0, f"from shared `{fp_name}`")

    def _eval(self, expr: Optional[ast.expr], guards: List[_Guard],
              used: Optional[List[Tuple[str, _Taint]]]
              ) -> Optional[_Taint]:
        if expr is None:
            return None
        if isinstance(expr, ast.Yield):
            inner = expr.value
            self._eval(inner, guards, used)  # args evaluate pre-yield
            effect = self._effect_symbol(inner)
            if effect in WRITE_EFFECTS:
                self._act(expr.lineno,
                          f"unconditional `yield effects."
                          f"{effect[1] if effect else '?'}(...)`",
                          guards)
            if effect == REPORT_ABORTED:
                self.order += 1
                self.discharges.append(self.order)
            self._bump(expr.lineno)
            what = f"effects.{effect[1]}" if effect is not None \
                else "a yield"
            return _Taint(self.seg, expr.lineno,
                          f"from `yield {what}(...)` at line "
                          f"{expr.lineno}")
        if isinstance(expr, ast.YieldFrom):
            targets: List[Node] = []
            if isinstance(expr.value, ast.Call):
                targets = self._call(expr.value, guards, used)
            else:
                self._eval(expr.value, guards, used)
            if any(t in self.an.report_aborted for t in targets):
                self.order += 1
                self.discharges.append(self.order)
            self._bump(expr.lineno)
            # A delegated generator's own reads count as re-reads at
            # this preemption point.
            for target in targets:
                for fp_name in sorted(self.an.yf_touches(target)[0]):
                    self._read_event(fp_name)
            return _Taint(self.seg, expr.lineno,
                          f"from `yield from ...` at line {expr.lineno}")
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, guards, used)
        if isinstance(expr, ast.Call):
            taints = [self._call_taint(expr, guards, used)]
            return _oldest(*taints)
        if isinstance(expr, ast.Name):
            taint = self.names.get(expr.id)
            if taint is not None and used is not None:
                used.append((expr.id, taint))
            return taint
        if isinstance(expr, ast.Attribute):
            root, steps = receiver_steps(expr.value)
            if root is not None:
                footprint = self.an.footprint_of(
                    self.module, self.info, [root] + steps, expr.attr)
                if footprint is not None and self.interleaving:
                    name = self.an.footprint_name(footprint)
                    taint = self._read_event(name)
                    taint.line = expr.lineno
                    taint.origin = (f"from shared `{name}` at line "
                                    f"{expr.lineno}")
                    return taint
                root_taint = self.names.get(root)
                if root_taint is not None and used is not None:
                    used.append((root, root_taint))
                return root_taint
            return self._eval(expr.value, guards, used)
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, guards, used)
            self._eval(expr.slice, guards, used)
            return base
        if isinstance(expr, ast.BoolOp):
            return _oldest(*[self._eval(v, guards, used)
                             for v in expr.values])
        if isinstance(expr, ast.BinOp):
            return _oldest(self._eval(expr.left, guards, used),
                           self._eval(expr.right, guards, used))
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, guards, used)
        if isinstance(expr, ast.Compare):
            return _oldest(self._eval(expr.left, guards, used),
                           *[self._eval(c, guards, used)
                             for c in expr.comparators])
        if isinstance(expr, ast.IfExp):
            return _oldest(self._eval(expr.test, guards, used),
                           self._eval(expr.body, guards, used),
                           self._eval(expr.orelse, guards, used))
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return _oldest(*[self._eval(e, guards, used)
                             for e in expr.elts])
        if isinstance(expr, ast.Dict):
            parts = [self._eval(k, guards, used)
                     for k in expr.keys if k is not None]
            parts.extend(self._eval(v, guards, used)
                         for v in expr.values)
            return _oldest(*parts)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, guards, used)
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, guards, used)
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            parts = [self._eval(gen.iter, guards, used)
                     for gen in expr.generators]
            return _oldest(*parts)
        if isinstance(expr, ast.NamedExpr):
            taint = self._eval(expr.value, guards, used)
            if isinstance(expr.target, ast.Name):
                self._bind(expr.target.id, expr.value, taint)
            return taint
        return None

    # -- calls -------------------------------------------------------------

    def _call_taint(self, call: ast.Call, guards: List[_Guard],
                    used: Optional[List[Tuple[str, _Taint]]]
                    ) -> Optional[_Taint]:
        targets = self._call(call, guards, used)
        del targets
        return self._last_call_taint

    def _call(self, call: ast.Call, guards: List[_Guard],
              used: Optional[List[Tuple[str, _Taint]]]) -> List[Node]:
        func = call.func
        taints: List[Optional[_Taint]] = []
        if isinstance(func, ast.Attribute):
            taints.append(self._eval(func.value, guards, used))
        elif not isinstance(func, ast.Name):
            taints.append(self._eval(func, guards, used))
        for arg in call.args:
            taints.append(self._eval(arg, guards, used))
        for keyword in call.keywords:
            taints.append(self._eval(keyword.value, guards, used))
        self._last_call_taint = _oldest(*taints)

        targets: List[Node] = []
        desc = self._desc_of(call)
        if desc is not None:
            targets = self.an.graph.resolve_call_quiet(
                self.module, self.qualname, self.info, desc)

        if isinstance(func, ast.Attribute):
            self._method_effects(func, call, guards, targets)
        self._propagate_txn(call, targets)
        return targets

    _last_call_taint: Optional[_Taint] = None

    def _method_effects(self, func: ast.Attribute, call: ast.Call,
                        guards: List[_Guard],
                        targets: List[Node]) -> None:
        attr = func.attr
        # Structural mutator call on a shared attribute.
        root, steps = receiver_steps(func.value)
        if root is not None and attr in ATOMIC_MUTATORS:
            if steps and steps[-1] != "[]":
                footprint = self.an.footprint_of(
                    self.module, self.info, [root] + steps[:-1],
                    steps[-1])
                if footprint is not None:
                    self._shared_write(
                        self.an.footprint_name(footprint), footprint,
                        "call", call.lineno, guards)
        # Transaction typestate events.
        if attr in FINISHING_METHODS or attr in USING_METHODS:
            key = self._txn_key(func.value)
            if key is not None:
                if attr in FINISHING_METHODS:
                    self._txn_finish(key, f".{attr}(...)", call.lineno)
                    if attr in NORETURN_FINISHERS:
                        self._noreturn = True
                else:
                    self._txn_use(
                        key, f"`.{attr}(...)`", call.lineno)

    def _txn_key(self, receiver: ast.expr) -> Optional[str]:
        if isinstance(receiver, ast.Name):
            if receiver.id in self.txn:
                return receiver.id
            entry = self.an.graph.eval_name(self.module, self.info,
                                            receiver.id)
            if entry is not None and self.an.is_txn_class(entry.cls):
                self.txn[receiver.id] = ["run", 0, ""]
                return receiver.id
            return None
        root, steps = receiver_steps(receiver)
        if root is None:
            return None
        key = ".".join([root] + steps)
        if key in self.txn:
            return key
        entry = self.an.graph.eval_chain(self.module, self.info,
                                         root, steps)
        if entry is not None and self.an.is_txn_class(entry.cls):
            self.txn[key] = ["run", 0, ""]
            return key
        return None

    def _txn_finish(self, key: str, how: str, line: int) -> None:
        """``how`` is a display phrase like ``.abort(...)`` or
        ``state = TxnState.ABORTED``."""
        state = self.txn.get(key)
        if state is None:
            return
        if state[0] == "fin":
            self._emit(line, "RA004", (
                f"transaction `{key}` is finished again by "
                f"`{how}` at line {line}: it was already finished by "
                f"`{state[2]}` at line {state[1]} on this path "
                f"(its snapshot must be released exactly once)"
            ))
        self.txn[key] = ["fin", line, how]

    def _txn_use(self, key: str, what: str, line: int) -> None:
        state = self.txn.get(key)
        if state is None or state[0] != "fin":
            return
        self._emit(line, "RA004", (
            f"transaction `{key}` is used by {what} at line {line} "
            f"after being finished by `{state[2]}` at line "
            f"{state[1]}; its snapshot and write set are released at "
            f"commit/abort, so no reads or writes may follow"
        ))

    def _propagate_txn(self, call: ast.Call,
                       targets: List[Node]) -> None:
        """Interprocedural typestate: passing a finished transaction to
        a callee that uses it (per the fixpoint summaries) is a use;
        a callee that finishes it downgrades certainty to `maybe`."""
        arg_names = [arg.id if isinstance(arg, ast.Name) else None
                     for arg in call.args]
        if not any(arg_names):
            return
        for target in targets:
            tinfo = self.an.graph.function_info(target)
            tsummary = self.an.txn_summaries.get(target)
            if tinfo is None or tsummary is None:
                continue
            pnames = list(tinfo.get("pnames", []))
            if "." in target[1] and pnames and \
                    pnames[0] in ("self", "cls"):
                pnames = pnames[1:]
            for arg_name, pname in zip(arg_names, pnames):
                if arg_name is None or arg_name not in self.txn:
                    continue
                if pname in tsummary["use"]:
                    self._txn_use(
                        arg_name,
                        f"`{target[0]}.{target[1]}` (which reads or "
                        f"writes through it)", call.lineno)
                if pname in tsummary["fin"]:
                    state = self.txn[arg_name]
                    if state[0] == "run":
                        self.txn[arg_name] = \
                            ["maybe", call.lineno, target[1]]
