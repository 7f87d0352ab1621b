"""Pass-2 extraction: one flow summary per module.

The pass-1 :class:`~repro.lint.index.ModuleSummary` answers "what does
this name import to"; this pass records what every *function* does --
which callables it invokes (and through which receiver chains), what it
yields, what it spawns into a simulator, and which determinism /
isolation facts its body exhibits, as plain data.

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
    ModuleSummary,
    NameRef,
    function_is_generator,
    name_ref_of,
    walk_functions,
)
from repro.lint.rules import WALL_CLOCK_ATTRS

#: Callables that *drive* a freshly created generator: their call-shaped
#: arguments become simulation entry points for RF001.
_SPAWN_ATTRS = frozenset({"spawn"})
_SPAWN_NAMES = frozenset({"run_direct"})

#: Receiver names that bind protocol objects (RF004 mutation facts);
#: mirrors RL009's heuristic so the transitive rule agrees with the
#: module-local one.
_PROTOCOL_RECEIVERS = frozenset({
    "record", "version", "cell", "snapshot", "descriptor",
    "txn", "transaction",
    "cluster", "storage_cluster", "storage_node", "store",
    "manager", "commit_manager", "processing_node",
    "btree", "tree",
})

PROTOCOL_MUTATORS = frozenset({
    "start", "set_committed", "set_aborted", "execute", "execute_scan",
    "apply", "insert", "delete", "update", "put", "commit", "abort",
    "append", "set_status", "recover", "invalidate", "note_applied",
})
_PROTOCOL_MUTATORS = PROTOCOL_MUTATORS

#: Method names that structurally mutate their receiver.  Superset of
#: PROTOCOL_MUTATORS: the atomic analysis also cares about plain
#: container mutators on shared attributes (``self.completed.pop(...)``).
ATOMIC_MUTATORS = PROTOCOL_MUTATORS | frozenset({
    "mark_completed", "pop", "popitem", "add", "discard", "remove",
    "clear", "extend", "setdefault", "move_to_end", "appendleft",
    "popleft",
})

#: Receiver names that bind repro.obs instrumentation (RF004).
_OBS_RECEIVERS = frozenset({"obs", "tracer", "registry"})


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


def _receiver_steps(node: ast.expr) -> Optional[Tuple[str, List[str]]]:
    """Flatten a receiver expression into ``(root_name, steps)``.

    ``self.commit_managers[i]`` becomes ``("self", ["commit_managers",
    "[]"])``; a step of ``"[]"`` means "element of the previous step".
    Returns None for receivers rooted anywhere but a bare name.
    """
    steps: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            steps.insert(0, node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            steps.insert(0, "[]")
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id, steps
        else:
            return None


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
        flattened = _receiver_steps(node)
        if flattened is not None:
            root, steps = flattened
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
    """Collect the flow summary of one function body.

    Nested defs are skipped here (they get their own summary; the parent
    records an implicit edge to them) and lambdas are folded into the
    enclosing function.
    """

    def __init__(self, summary: ModuleSummary, node: ast.AST,
                 qualname: str, class_name: Optional[str]) -> None:
        self.summary = summary
        self.qualname = qualname
        self.info: Dict[str, Any] = {
            "line": getattr(node, "lineno", 0),
            "gen": function_is_generator(node),
            "cls": class_name,
            "params": {},
            "bindings": {},
            "locals": [],
            "calls": [],
            "yields": [],
            "spawns": [],
            "facts": {},
            "pnames": [],
            "touch": [],
            "ylines": {},
        }
        self._yf_calls: set = set()
        #: Lexical yield-segment counter: 0 before the first preemption
        #: point, +1 after every ``yield``/``yield from``.  Touch records
        #: carry the segment they happened in so the atomic analysis can
        #: build yield-point summaries of callees.
        self._seg = 0
        self._touch_seen: set = set()
        args = getattr(node, "args", None)
        if args is not None:
            every = list(getattr(args, "posonlyargs", [])) + \
                list(args.args) + list(args.kwonlyargs)
            self.info["pnames"] = [arg.arg for arg in every]
            for arg in every:
                info = _ann_info(arg.annotation)
                if info:
                    self.info["params"][arg.arg] = info
        for child in getattr(node, "body", []):
            self.visit(child)

    _TOUCH_CAP = 160

    def _touch(self, root: str, steps: List[str], attr: str, kind: str,
               line: int) -> None:
        """Record one shared-state touch: a read (``r``) or write
        (``set``/``aug``/``sub``/``del``/``call``) through an attribute
        chain, tagged with the yield segment it happens in."""
        key = (root, tuple(steps), attr, kind, self._seg)
        if key in self._touch_seen or \
                len(self.info["touch"]) >= self._TOUCH_CAP:
            return
        self._touch_seen.add(key)
        self.info["touch"].append({
            "c": [root] + list(steps), "a": attr, "k": kind,
            "s": self._seg, "ln": line,
        })

    def _touch_target(self, target: ast.expr, line: int,
                      kind: str = "set") -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
            if kind == "set":
                kind = "sub"
        if not isinstance(target, ast.Attribute):
            return
        flattened = _receiver_steps(target.value)
        if flattened is not None:
            root, steps = flattened
            self._touch(root, steps, target.attr, kind, line)

    # -- bookkeeping -------------------------------------------------------

    def _fact(self, kind: str, line: int, detail: str = "") -> None:
        entry: Dict[str, Any] = {"line": line}
        if detail:
            entry["what"] = detail
        self.info["facts"].setdefault(kind, []).append(entry)

    def _bind(self, name: str, desc: Optional[Dict[str, Any]]) -> None:
        if desc is not None:
            self.info["bindings"][name] = desc

    # -- defs / loops ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.info["locals"].append(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.info["locals"].append(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

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
        self.visit(node.value)  # value first: yields bump the segment
        for target in node.targets:
            self._touch_target(target, node.lineno)
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
        self._touch_target(node.target, node.lineno)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node, [node.target])
        self.visit(node.value)
        self._touch_target(node.target, node.lineno, kind="aug")

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._touch_target(target, node.lineno, kind="del")
        self.generic_visit(node)

    def _check_mutation_target(self, node: ast.stmt,
                               targets: List[ast.expr]) -> None:
        """RL009-style protocol-mutation fact: attribute assignment whose
        receiver chain ends in a protocol name and is not self-rooted."""
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if not isinstance(target, ast.Attribute):
                continue
            flattened = _receiver_steps(target.value)
            if flattened is None:
                continue
            root, steps = flattened
            if root in ("self", "cls"):
                continue
            final = steps[-1] if steps and steps[-1] != "[]" else root
            if final in _PROTOCOL_RECEIVERS:
                self._fact("mutates", node.lineno,
                           f"assigns `.{target.attr}` on protocol object "
                           f"`{final}`")

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
            self.visit(value)  # arguments are evaluated pre-yield
        self._seg += 1
        self.info["ylines"][str(self._seg)] = node.lineno

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        if isinstance(node.value, ast.Call):
            self._yf_calls.add(id(node.value))
        self.visit(node.value)
        self._seg += 1
        self.info["ylines"][str(self._seg)] = node.lineno

    # -- calls and facts ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        desc = self._call_desc(node)
        if desc is not None:
            if id(node) in self._yf_calls:
                desc["yf"] = True
            self.info["calls"].append(desc)
        self._check_spawn(node)
        self._check_rng(node)
        self.generic_visit(node)

    @staticmethod
    def _arg_names(node: ast.Call) -> Optional[List[Optional[str]]]:
        """Bare names of the positional arguments (None placeholders for
        expressions), recorded so typestate summaries can map caller
        locals onto callee parameters.  None when no argument is a name."""
        names: List[Optional[str]] = [
            arg.id if isinstance(arg, ast.Name) else None
            for arg in node.args
        ]
        return names if any(n is not None for n in names) else None

    def _call_desc(self, node: ast.Call) -> Optional[Dict[str, Any]]:
        func = node.func
        if isinstance(func, ast.Name):
            # from-time import calls are wall-clock facts, not edges
            symbol = self.summary.resolve_name(func.id)
            if (symbol is not None and symbol[0] == "time"
                    and symbol[1] in WALL_CLOCK_ATTRS):
                self._fact("wall_clock", node.lineno, f"time.{symbol[1]}")
                return None
            desc: Dict[str, Any] = {"k": "name", "fn": func.id,
                                    "line": node.lineno}
            args = self._arg_names(node)
            if args is not None:
                desc["args"] = args
            return desc
        if isinstance(func, ast.Attribute):
            flattened = _receiver_steps(func.value)
            if flattened is None:
                return None
            root, steps = flattened
            final = steps[-1] if steps and steps[-1] != "[]" else root
            if final in _OBS_RECEIVERS and root not in ("self", "cls"):
                self._fact("obs", node.lineno,
                           f"`{final}.{func.attr}(...)`")
            if (final in _PROTOCOL_RECEIVERS and root not in ("self", "cls")
                    and func.attr in _PROTOCOL_MUTATORS):
                self._fact("mutates", node.lineno,
                           f"calls `{final}.{func.attr}(...)`")
            if func.attr in ATOMIC_MUTATORS and steps and steps[-1] != "[]":
                # `self.completed.mark_completed(tid)` structurally
                # mutates the `completed` attribute of `self`.
                self._touch(root, steps[:-1], steps[-1], "call",
                            node.lineno)
            desc = {"k": "attr", "root": root, "steps": steps,
                    "attr": func.attr, "line": node.lineno}
            args = self._arg_names(node)
            if args is not None:
                desc["args"] = args
            return desc
        if isinstance(func, ast.Subscript):
            table = name_ref_of(func.value)
            if table is not None:
                return {"k": "table", "table": list(table),
                        "line": node.lineno}
        return None

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

    def _check_rng(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and self.summary.resolve_qualifier(func.value.id) == "random"):
            if func.attr not in ("Random", "SystemRandom"):
                self._fact("rng", node.lineno, f"random.{func.attr}")
            elif func.attr == "Random" and not node.args:
                self._fact("rng", node.lineno, "random.Random()")
        elif isinstance(func, ast.Name):
            symbol = self.summary.resolve_name(func.id)
            if symbol == ("random", "Random") and not node.args:
                self._fact("rng", node.lineno, "Random()")

    # -- remaining facts ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr in WALL_CLOCK_ATTRS
                and isinstance(node.value, ast.Name)
                and self.summary.resolve_qualifier(node.value.id) == "time"):
            self._fact("wall_clock", node.lineno, f"time.{node.attr}")
        if isinstance(node.ctx, ast.Load):
            flattened = _receiver_steps(node.value)
            if flattened is not None:
                root, steps = flattened
                self._touch(root, steps, node.attr, "r", node.lineno)
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
    for fn, class_name, qualname in walk_functions(tree):
        flow.functions[qualname] = _FunctionExtractor(
            summary, fn, qualname, class_name).info
    return flow
