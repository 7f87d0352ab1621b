"""Pass-2 extraction: one flow summary per module.

The pass-1 :class:`~repro.lint.index.ModuleSummary` answers "what does
this name import to"; this pass records what every *function* does --
which callables it invokes (and through which receiver chains), what it
yields, what it spawns into a simulator, and which determinism /
isolation facts its body exhibits, as plain data.  A module's top-level
code is summarized too, as the pseudo-function :data:`MODULE_SCOPE`.

The facts (wall-clock reads, unseeded RNG, protocol mutations, obs use)
are extracted here and nowhere else; the tables below define them and
the RF rules only report them.

Resolution is deliberately deferred: a call is recorded as a *shape*
(bare name, receiver chain rooted at ``self``/a local/a parameter, a
dispatch-table subscript) and only turned into a call-graph edge by
:mod:`repro.lint.flow.callgraph`, which has the whole project in view.
Receivers resolve through explicit evidence only -- a parameter or local
annotation, a local ``ClassName(...)`` construction, or an attribute
assigned from one of those in a method body.  An unresolvable receiver
produces no edge, never a guessed one.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.index import (
    FunctionNode,
    ModuleSummary,
    in_prefixes,
    name_ref_of,
    receiver_steps,
    walk_functions,
)

#: Packages whose code runs on *simulated* time.  Wall-clock reads here
#: bypass the event kernel and (worse) vary run to run, breaking the
#: determinism contract of repro/sim/kernel.py.  repro.runtime is the
#: code that *decides* simulated time (the fabric); repro.bench is
#: excluded: measuring real elapsed time is its job.
SIMULATED_TIME_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.store",
    "repro.index",
    "repro.net",
    "repro.runtime",
    "repro.baselines",
)

WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "sleep",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: The sanitizers: observers that must never change the run they check
#: nor depend on the repro.obs layer (RF004).
SAN_PACKAGE = "repro.san"
OBS_PACKAGE = "repro.obs"
#: Driver modules inside repro.san: they *own* deployments and may
#: mutate protocol state freely (that is their job).
SAN_DRIVER_MODULES: Tuple[str, ...] = (
    "repro.san.scenarios",
    "repro.san.explorer",
    "repro.san.__main__",
)

#: Receiver names that (by repo-wide convention) bind protocol objects.
#: Sanitizer-owned state avoids them: shadow cells are `sc`, transaction
#: views `view`, the history `shadow`.
PROTOCOL_RECEIVERS = frozenset({
    "record", "version", "cell", "snapshot", "descriptor",
    "txn", "transaction", "start",
    "cluster", "storage_cluster", "node", "storage_node", "store",
    "manager", "commit_manager", "pn", "processing_node",
    "btree", "tree", "index",
    "request", "op", "ctx", "env",
})

#: Methods that may be called on a protocol receiver without mutating
#: it: read-only accessors (several added expressly for the sanitizers).
#: Any other method call on one is a protocol-mutation fact.
READ_ONLY_METHODS = frozenset({
    # records / versions
    "version_numbers", "latest_visible", "payload_of", "get",
    "collectable_versions", "fully_deleted", "approx_size",
    # snapshots
    "as_pair", "contains", "issubset",
    # commit manager / gc
    "active_transactions", "completed_view", "as_dict",
    "local_lav", "lowest_active_version", "highest_known_tid",
    "active_tids_of",
    # misc read-only
    "keys", "values", "items", "copy",
})

#: Receiver names that bind repro.obs instrumentation.
OBS_RECEIVERS = frozenset({"obs", "tracer", "registry", "span"})

#: Protocol methods that mutate through `self`, which no call-site fact
#: can see: in the simulated-time packages they are mutation sources
#: themselves (``CommitManager.start``).
PROTOCOL_MUTATORS = frozenset({
    "start", "set_committed", "set_aborted", "execute", "execute_scan",
    "apply", "insert", "delete", "update", "put", "commit", "abort",
    "append", "set_status", "recover", "invalidate", "note_applied",
})

#: Callables that *drive* a freshly created generator: their call-shaped
#: arguments become simulation entry points for RF001.
_SPAWN_ATTRS = frozenset({"spawn"})
_SPAWN_NAMES = frozenset({"run_direct"})

#: Qualname of the pseudo-function holding a module's top-level code:
#: statements, class bodies, decorators and argument defaults.
MODULE_SCOPE = "<module>"


def _final_name(root: Optional[str], steps: List[str]) -> Optional[str]:
    """The name a receiver chain goes by: its last attribute, or its root
    name when it is a bare name or ends in a subscript."""
    if steps and steps[-1] != "[]":
        return steps[-1]
    return root


def _ann_info(node: Optional[ast.expr]) -> Dict[str, Any]:
    """Parse an annotation into ``{"ref": NameRef?, "elem": NameRef?}``.

    ``ref`` is the annotated type itself, ``elem`` the element type of a
    recognized container (``List[X]``, ``Sequence[X]``, ``Dict[K, V]``
    values, ...).  ``Optional[X]`` unwraps to ``X``.
    """
    info: Dict[str, Any] = {}
    if node is None:
        return info
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        if text.isidentifier():
            info["ref"] = ["name", text]
        return info
    ref = name_ref_of(node)
    if ref is not None:
        info["ref"] = list(ref)
        return info
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        inner: ast.expr = node.slice
        if isinstance(inner, ast.Index):  # pragma: no cover -- py3.8 AST
            inner = inner.value  # type: ignore[attr-defined]
        if base_name == "Optional":
            return _ann_info(inner)
        if base_name in ("List", "Sequence", "Iterable", "Iterator",
                         "Set", "FrozenSet", "Tuple", "list", "set",
                         "tuple", "Deque", "deque"):
            first = inner.elts[0] if isinstance(inner, ast.Tuple) and \
                inner.elts else inner
            elem = _ann_info(first).get("ref")
            if elem is not None:
                info["elem"] = elem
        elif base_name in ("Dict", "Mapping", "MutableMapping", "dict"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                elem = _ann_info(inner.elts[1]).get("ref")
                if elem is not None:
                    info["elem"] = elem
    return info


def _value_desc(node: ast.expr) -> Optional[Dict[str, Any]]:
    """Describe the value of an assignment RHS, if evidence exists."""
    if isinstance(node, ast.Call):
        ref = name_ref_of(node.func)
        if ref is not None:
            return {"k": "call", "ref": list(ref)}
        return None
    if isinstance(node, ast.Name):
        return {"k": "alias", "name": node.id}
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        root, steps = receiver_steps(node)
        if root is not None:
            return {"k": "chain", "root": root, "steps": steps}
        return None
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        if isinstance(node.elt, ast.Call):
            ref = name_ref_of(node.elt.func)
            if ref is not None:
                return {"k": "listof", "ref": list(ref)}
    if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
        refs = set()
        for elt in node.elts:
            if not isinstance(elt, ast.Call):
                return None
            ref = name_ref_of(elt.func)
            if ref is None:
                return None
            refs.add(tuple(ref))
        if len(refs) == 1:
            return {"k": "listof", "ref": list(refs.pop())}
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Collect the flow summary of one function body (or, for
    :data:`MODULE_SCOPE`, of a module's top-level code).

    Nested defs are skipped here (they get their own summary; the parent
    records an implicit edge to them, and evaluates their decorators and
    defaults) and lambdas are folded into the enclosing function.
    """

    def __init__(self, summary: ModuleSummary, node: ast.AST,
                 qualname: str, class_name: Optional[str]) -> None:
        self.summary = summary
        self.qualname = qualname
        self.info: Dict[str, Any] = {
            "line": getattr(node, "lineno", 0),
            "cls": class_name,
            "params": {},
            "bindings": {},
            "locals": [],
            "calls": [],
            "yields": [],
            "spawns": [],
            "facts": {},
        }
        args = getattr(node, "args", None)
        if args is not None:
            every = list(getattr(args, "posonlyargs", [])) + \
                list(args.args) + list(args.kwonlyargs)
            for arg in every:
                info = _ann_info(arg.annotation)
                if info:
                    self.info["params"][arg.arg] = info
        for child in getattr(node, "body", []):
            self.visit(child)

    # -- bookkeeping -------------------------------------------------------

    def _fact(self, kind: str, line: int, detail: str) -> None:
        self.info["facts"].setdefault(kind, []).append(
            {"line": line, "what": detail})

    def _bind(self, name: str, desc: Optional[Dict[str, Any]]) -> None:
        if desc is not None:
            self.info["bindings"][name] = desc

    # -- defs / loops ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def _visit_def(self, node: FunctionNode) -> None:
        """A nested def: its body has its own summary, but its decorators
        and argument defaults run here, in the enclosing scope."""
        if self.qualname != MODULE_SCOPE:
            # Module-level defs are reached through ordinary call
            # resolution; only nested ones get the implicit parent edge.
            self.info["locals"].append(node.name)
        for expr in (*node.decorator_list, *node.args.defaults,
                     *node.args.kw_defaults):
            if expr is not None:
                self.visit(expr)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            src = _value_desc(node.iter)
            if src is not None:
                self._bind(node.target.id, {"k": "iter", "src": src})
        self.generic_visit(node)

    # -- bindings ----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._bind(node.targets[0].id, _value_desc(node.value))
        self._check_mutation_target(node, node.targets)
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            info = _ann_info(node.annotation)
            if info:
                self._bind(node.target.id, {"k": "ann", **info})
            elif node.value is not None:
                self._bind(node.target.id, _value_desc(node.value))
        self._check_mutation_target(node, [node.target])
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node, [node.target])
        self.visit(node.value)

    @staticmethod
    def _protocol_receiver(node: ast.expr) -> Optional[str]:
        """The receiver's name if it binds a protocol object the code at
        hand does not own (chains rooted at ``self``/``cls`` are its own
        state)."""
        root, steps = receiver_steps(node)
        if root in ("self", "cls"):
            return None
        final = _final_name(root, steps)
        return final if final in PROTOCOL_RECEIVERS else None

    def _check_mutation_target(self, node: ast.stmt,
                               targets: List[ast.expr]) -> None:
        """Protocol-mutation fact: an attribute (or subscript) store on a
        protocol receiver."""
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if not isinstance(target, ast.Attribute):
                continue
            receiver = self._protocol_receiver(target.value)
            if receiver is not None:
                self._fact("mutates", node.lineno,
                           f"assigns `.{target.attr}` on protocol object "
                           f"`{receiver}`")

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if in_prefixes(alias.name, (OBS_PACKAGE,)):
                self._fact("obs", node.lineno, f"imports `{alias.name}`")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time" and not node.level:
            for alias in node.names:
                if alias.name in WALL_CLOCK_ATTRS:
                    self._fact("wall_clock", node.lineno,
                               f"time.{alias.name}")
        elif in_prefixes(node.module or "", (OBS_PACKAGE,)):
            self._fact("obs", node.lineno,
                       f"imports from `{node.module}`")

    # -- yields ------------------------------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            ref = name_ref_of(value.func)
            if ref is not None:
                self.info["yields"].append(
                    {"line": node.lineno, "ref": list(ref)}
                )
        if value is not None:
            self.visit(value)

    # -- calls and facts ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        desc = self._call_desc(node)
        if desc is not None:
            self.info["calls"].append(desc)
        self._call_facts(node)
        self._check_spawn(node)
        self.generic_visit(node)

    def _wall_clock_import(self, name: str) -> Optional[str]:
        """``perf_counter`` after ``from time import perf_counter``: the
        wall-clock function a bare name is bound to, if any."""
        symbol = self.summary.resolve_name(name)
        if symbol is not None and symbol[0] == "time" \
                and symbol[1] in WALL_CLOCK_ATTRS:
            return symbol[1]
        return None

    def _call_desc(self, node: ast.Call) -> Optional[Dict[str, Any]]:
        func = node.func
        if isinstance(func, ast.Name):
            if self._wall_clock_import(func.id) is not None:
                return None  # a wall-clock fact, not an edge
            return {"k": "name", "fn": func.id, "line": node.lineno}
        if isinstance(func, ast.Attribute):
            root, steps = receiver_steps(func.value)
            if root is None:
                return None
            return {"k": "attr", "root": root, "steps": steps,
                    "attr": func.attr, "line": node.lineno}
        if isinstance(func, ast.Subscript):
            table = name_ref_of(func.value)
            if table is None:
                return None
            return {"k": "table", "table": list(table), "line": node.lineno}
        return None

    def _call_facts(self, node: ast.Call) -> None:
        """Wall-clock, unseeded-RNG, obs and protocol-mutation facts of
        one call."""
        func = node.func
        if isinstance(func, ast.Name):
            clock = self._wall_clock_import(func.id)
            if clock is not None:
                self._fact("wall_clock", node.lineno, f"time.{clock}")
            elif (self.summary.resolve_name(func.id) == ("random", "Random")
                    and not node.args):
                self._fact("rng", node.lineno, "Random()")
            return
        if not isinstance(func, ast.Attribute):
            return
        root, steps = receiver_steps(func.value)
        final = _final_name(root, steps)
        if final in OBS_RECEIVERS:
            self._fact("obs", node.lineno, f"calls `{final}.{func.attr}(...)`")
        elif (final in PROTOCOL_RECEIVERS and root not in ("self", "cls")
                and func.attr not in READ_ONLY_METHODS):
            self._fact("mutates", node.lineno,
                       f"calls `{final}.{func.attr}(...)`")
        if root is not None and not steps \
                and self.summary.resolve_qualifier(root) == "random":
            if func.attr not in ("Random", "SystemRandom"):
                self._fact("rng", node.lineno, f"random.{func.attr}")
            elif func.attr == "Random" and not node.args:
                self._fact("rng", node.lineno, "random.Random()")

    def _check_spawn(self, node: ast.Call) -> None:
        func = node.func
        is_spawn = (
            (isinstance(func, ast.Attribute) and func.attr in _SPAWN_ATTRS)
            or (isinstance(func, ast.Name) and func.id in _SPAWN_NAMES)
        )
        if not is_spawn:
            return
        for arg in node.args:
            if isinstance(arg, ast.Call):
                desc = self._call_desc(arg)
                if desc is not None:
                    self.info["spawns"].append(desc)

    # -- remaining facts ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr in WALL_CLOCK_ATTRS
                and isinstance(node.value, ast.Name)
                and self.summary.resolve_qualifier(node.value.id) == "time"):
            self._fact("wall_clock", node.lineno, f"time.{node.attr}")
        self.generic_visit(node)


class ModuleFlow:
    """The flow summary of one module: functions, attribute types of its
    classes, and module-level dispatch tables.  Pure data."""

    __slots__ = ("module", "functions", "attr_types", "tables")

    def __init__(self, module: str) -> None:
        self.module = module
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.attr_types: Dict[str, Dict[str, Any]] = {}
        self.tables: Dict[str, List[Optional[List[str]]]] = {}


def _collect_attr_types(cls_node: ast.ClassDef) -> Dict[str, Any]:
    """Instance-attribute types of one class, from class-body annotations
    and ``self.x = ...`` assignments in method bodies."""
    attrs: Dict[str, Any] = {}
    for item in cls_node.body:
        if (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id != "__slots__"):
            info = _ann_info(item.annotation)
            if info:
                attrs[item.target.id] = info
    for item in cls_node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: Dict[str, Any] = {}
        args = list(getattr(item.args, "posonlyargs", [])) + \
            list(item.args.args) + list(item.args.kwonlyargs)
        for arg in args:
            info = _ann_info(arg.annotation)
            if info:
                params[arg.arg] = info
        for stmt in ast.walk(item):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, \
                    stmt.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            name = target.attr
            if annotation is not None:
                info = _ann_info(annotation)
                if info:
                    attrs[name] = info
                continue
            if name in attrs:  # annotations win over inference
                continue
            if isinstance(value, ast.Call):
                ref = name_ref_of(value.func)
                if ref is not None:
                    attrs[name] = {"construct": list(ref)}
            elif isinstance(value, ast.Name) and value.id in params:
                attrs[name] = dict(params[value.id])
            elif value is not None:
                desc = _value_desc(value)
                if desc is not None and desc["k"] == "listof":
                    attrs[name] = {"construct_elem": desc["ref"]}
    return attrs


def _collect_tables(tree: ast.Module) -> Dict[str, List[Optional[List[str]]]]:
    """Module-level dispatch tables: the callables a dict literal (or a
    ``TABLE[k] = v`` registration) maps its keys to."""
    tables: Dict[str, List[Optional[List[str]]]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target: ast.expr = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Dict):
            name, values = target.id, stmt.value.values
        elif (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)):
            name, values = target.value.id, [stmt.value]
        else:
            continue
        for value in values:
            value_ref = name_ref_of(value)
            tables.setdefault(name, []).append(
                list(value_ref) if value_ref is not None else None)
    return tables


def extract_module_flow(summary: ModuleSummary,
                        tree: ast.Module) -> ModuleFlow:
    """Extract the full flow summary of one parsed module."""
    flow = ModuleFlow(summary.module)
    flow.tables = _collect_tables(tree)

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            flow.attr_types[node.name] = _collect_attr_types(node)
    flow.functions[MODULE_SCOPE] = _FunctionExtractor(
        summary, tree, MODULE_SCOPE, None).info
    for fn, class_name, qualname in walk_functions(tree):
        flow.functions[qualname] = _FunctionExtractor(
            summary, fn, qualname, class_name).info
    return flow
