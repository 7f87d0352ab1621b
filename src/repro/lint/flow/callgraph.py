"""Link per-module flow summaries into a project-wide call graph.

Nodes are ``(module, qualname)`` pairs, one per function or method.
Edges are added only on explicit evidence, mirroring the pass-1 policy
("no finding over speculation" -- here: no *edge* over speculation):

* bare-name calls resolve through local bindings, module-level
  functions, and the import table;
* method calls resolve when the receiver's class is known -- ``self`` /
  ``cls``, an annotated parameter or local, a local ``ClassName(...)``
  construction, or an attribute chain whose types were recorded by
  :mod:`repro.lint.flow.summary` (``self.commit_managers[i]`` resolves
  through the ``List[CommitManager]`` annotation on ``__init__``);
  the call also reaches every subclass override of the method
  (``SimulatedDeployment._terminal`` calls ``self._transactions(...)``;
  ``StorageCluster.apply`` calls ``op.apply(...)`` on a ``StoreRequest``
  and lands in each effect class's storage-node operation);
* ``yield from f(...)`` is an ordinary call edge, so taint flows
  through coroutine chains;
* ``TABLE[key](...)`` fans out to every callable registered in a
  module-level dispatch table (``TRANSACTIONS`` in the TPC-C driver).

Method lookup walks the class's bases across modules (name-based MRO
approximation, same scheme the pass-1 index uses within one module).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.index import ProjectIndex, Symbol
from repro.lint.flow.summary import ModuleFlow

Node = Tuple[str, str]  # (dotted module, function qualname)

_MAX_EVAL_DEPTH = 8


class _TypeEntry:
    """Evaluated type evidence: the value's class and/or its element
    class (for containers), and -- for bound methods -- a call target."""

    __slots__ = ("cls", "elem", "func")

    def __init__(self, cls: Optional[Symbol] = None,
                 elem: Optional[Symbol] = None,
                 func: Optional[Node] = None) -> None:
        self.cls = cls
        self.elem = elem
        self.func = func


class CallGraph:
    """The linked project call graph plus per-node resolution caches."""

    def __init__(self, index: ProjectIndex, flows: Dict[str, ModuleFlow]) -> None:
        self.index = index
        self.flows = flows
        self.nodes: Set[Node] = set()
        self.edges: Dict[Node, Set[Node]] = {}
        #: First call-site line per edge, for messages and anchors.
        self.edge_sites: Dict[Node, List[Tuple[Node, int]]] = {}
        #: Resolved calls into modules with no flow summary (stdlib,
        #: unparsed packages): ``node -> [(symbol, line)]``.
        self.external: Dict[Node, List[Tuple[Symbol, int]]] = {}
        #: Resolved generator arguments of ``spawn(...)``/``run_direct``.
        self.spawned: Set[Node] = set()
        #: Resolved yielded constructions: ``node -> [(line, symbol)]``.
        self.yielded_classes: Dict[Node, List[Tuple[int, Symbol]]] = {}
        #: Resolved class base edges, project-wide.
        self.bases_of: Dict[Symbol, List[Symbol]] = {}
        self._method_cache: Dict[Tuple[Symbol, str], Optional[Node]] = {}
        self._link()

    # -- class helpers -----------------------------------------------------

    def _collect_bases(self) -> None:
        for module, summary in self.index.summaries.items():
            for cls in summary.classes.values():
                symbol = (module, cls.name)
                self.bases_of[symbol] = \
                    self.index.resolve_base_symbols(summary, cls)

    def is_subclass(self, symbol: Symbol, base: Symbol) -> bool:
        """True if ``symbol`` is ``base`` or inherits from it."""
        seen: Set[Symbol] = set()
        stack = [symbol]
        while stack:
            current = stack.pop()
            if current == base:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.bases_of.get(current, ()))
        return False

    def method_node(self, cls: Symbol, name: str) -> Optional[Node]:
        """Resolve ``cls.name`` to the defining function node (MRO walk)."""
        key = (cls, name)
        if key in self._method_cache:
            return self._method_cache[key]
        result: Optional[Node] = None
        seen: Set[Symbol] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            flow = self.flows.get(current[0])
            if flow is not None:
                qualname = f"{current[1]}.{name}"
                if qualname in flow.functions:
                    result = (current[0], qualname)
                    break
            stack.extend(self.bases_of.get(current, ()))
        self._method_cache[key] = result
        return result

    def override_nodes(self, cls: Symbol, name: str) -> List[Node]:
        """Every redefinition of ``name`` in a proper subclass of ``cls``:
        where a call on a receiver typed ``cls`` may land at run time."""
        return [
            (module, f"{cls_name}.{name}")
            for module, cls_name in self.bases_of
            if (module, cls_name) != cls
            and f"{cls_name}.{name}" in self.flows[module].functions
            and self.is_subclass((module, cls_name), cls)
        ]

    def attr_entry(self, cls: Symbol, attr: str) -> Optional[Dict[str, Any]]:
        """The recorded type info of instance attribute ``cls.attr``,
        searched through the base classes; refs stay module-relative to
        the defining class, so the defining module is returned with it."""
        seen: Set[Symbol] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            flow = self.flows.get(current[0])
            if flow is not None:
                entry = flow.attr_types.get(current[1], {}).get(attr)
                if entry is not None:
                    return {"module": current[0], **entry}
            stack.extend(self.bases_of.get(current, ()))
        return None

    # -- type evaluation ---------------------------------------------------

    def _resolve_ref(self, module: str,
                     ref: Optional[List[str]]) -> Optional[Symbol]:
        if ref is None:
            return None
        summary = self.index.summaries.get(module)
        if summary is None:
            return None
        return summary.resolve_ref(tuple(ref))

    def _entry_from_info(self, module: str,
                         info: Dict[str, Any]) -> _TypeEntry:
        """Entry from an annotation/attr-type record (``ref``/``elem`` /
        ``construct``/``construct_elem`` keys, module-relative)."""
        entry = _TypeEntry()
        entry.cls = self._resolve_ref(module, info.get("ref")) \
            or self._resolve_ref(module, info.get("construct"))
        entry.elem = self._resolve_ref(module, info.get("elem")) \
            or self._resolve_ref(module, info.get("construct_elem"))
        # A "construct"/"ref" only types the value if it names a class.
        if entry.cls is not None and not self._is_class(entry.cls):
            entry.cls = None
        if entry.elem is not None and not self._is_class(entry.elem):
            entry.elem = None
        return entry

    def _is_class(self, symbol: Symbol) -> bool:
        summary = self.index.summaries.get(symbol[0])
        return summary is not None and symbol[1] in summary.classes

    def _eval_desc(self, module: str, info: Dict[str, Any],
                   desc: Dict[str, Any], depth: int) -> Optional[_TypeEntry]:
        """Evaluate a recorded binding descriptor to a type entry."""
        if depth > _MAX_EVAL_DEPTH:
            return None
        kind = desc.get("k")
        if kind == "ann":
            return self._entry_from_info(module, desc)
        if kind == "call":
            symbol = self._resolve_ref(module, desc.get("ref"))
            if symbol is not None and self._is_class(symbol):
                return _TypeEntry(cls=symbol)
            return None
        if kind == "alias":
            return self._eval_name(module, info, desc["name"], depth + 1)
        if kind == "listof":
            symbol = self._resolve_ref(module, desc.get("ref"))
            if symbol is not None and self._is_class(symbol):
                return _TypeEntry(elem=symbol)
            return None
        if kind == "iter":
            src = self._eval_desc(module, info, desc["src"], depth + 1)
            if src is not None and src.elem is not None:
                return _TypeEntry(cls=src.elem)
            return None
        if kind == "chain":
            return self._eval_chain(module, info, desc["root"],
                                    desc["steps"], depth + 1)
        return None

    def _eval_name(self, module: str, info: Dict[str, Any], name: str,
                   depth: int) -> Optional[_TypeEntry]:
        """Type/callable bound to a bare name inside a function."""
        if depth > _MAX_EVAL_DEPTH:
            return None
        if name in ("self", "cls"):
            cls_name = info.get("cls")
            if cls_name is not None:
                return _TypeEntry(cls=(module, cls_name))
            return None
        binding = info.get("bindings", {}).get(name)
        if binding is not None:
            return self._eval_desc(module, info, binding, depth + 1)
        param = info.get("params", {}).get(name)
        if param is not None:
            return self._entry_from_info(module, param)
        symbol = self._resolve_ref(module, ["name", name])
        if symbol is not None and self._is_class(symbol):
            return _TypeEntry(cls=symbol)
        return None

    def _eval_chain(self, module: str, info: Dict[str, Any], root: str,
                    steps: List[str], depth: int) -> Optional[_TypeEntry]:
        """Walk ``root.step1.step2[...]`` through recorded attr types."""
        entry = self._eval_name(module, info, root, depth)
        for step in steps:
            if entry is None:
                return None
            if step == "[]":
                if entry.elem is None:
                    return None
                entry = _TypeEntry(cls=entry.elem)
                continue
            if entry.cls is None:
                return None
            attr = self.attr_entry(entry.cls, step)
            if attr is not None:
                entry = self._entry_from_info(attr["module"], attr)
                continue
            method = self.method_node(entry.cls, step)
            if method is not None:
                entry = _TypeEntry(func=method)
                continue
            return None
        return entry

    # -- call resolution ---------------------------------------------------

    def _resolve_symbol_target(self, symbol: Symbol) -> Optional[Node]:
        """Node for a resolved symbol: a function, or a class's
        ``__init__`` (constructing is calling the initializer)."""
        flow = self.flows.get(symbol[0])
        if flow is not None and symbol[1] in flow.functions:
            return symbol
        if self._is_class(symbol):
            return self.method_node(symbol, "__init__")
        return None

    def _resolve_call(self, module: str, qualname: str,
                      info: Dict[str, Any],
                      desc: Dict[str, Any]) -> List[Node]:
        """Targets of one recorded call; external symbols are logged to
        ``self.external`` as a side effect."""
        node = (module, qualname)
        line = desc.get("line", 0)
        kind = desc.get("k")
        if kind == "name":
            name = desc["fn"]
            if name in info.get("locals", []):
                return []  # implicit parent->nested edge already exists
            entry = None
            binding = info.get("bindings", {}).get(name)
            if binding is not None:
                entry = self._eval_desc(module, info, binding, 0)
            if entry is not None and entry.func is not None:
                return [entry.func]
            flow = self.flows.get(module)
            if flow is not None and name in flow.functions:
                return [(module, name)]
            symbol = self._resolve_ref(module, ["name", name])
            if symbol is None:
                return []
            target = self._resolve_symbol_target(symbol)
            if target is not None:
                return [target]
            self.external.setdefault(node, []).append((symbol, line))
            return []
        if kind == "attr":
            root, steps, attr = desc["root"], desc["steps"], desc["attr"]
            receiver = self._eval_chain(module, info, root, steps, 0)
            if receiver is not None and receiver.cls is not None:
                method = self.method_node(receiver.cls, attr)
                targets = [method] if method is not None else []
                return targets + self.override_nodes(receiver.cls, attr)
            if not steps:
                summary = self.index.summaries.get(module)
                qualifier = summary.resolve_qualifier(root) \
                    if summary is not None else None
                if qualifier is not None:
                    symbol = (qualifier, attr)
                    target = self._resolve_symbol_target(symbol)
                    if target is not None:
                        return [target]
                    self.external.setdefault(node, []).append((symbol, line))
            return []
        if kind == "table":
            table_sym = self._resolve_ref(module, desc.get("table"))
            if table_sym is None:
                return []
            flow = self.flows.get(table_sym[0])
            if flow is None:
                return []
            table = flow.tables.get(table_sym[1])
            if table is None:
                return []
            targets: List[Node] = []
            for value in table:
                symbol = self._resolve_ref(table_sym[0], value)
                if symbol is None:
                    continue
                target = self._resolve_symbol_target(symbol)
                if target is not None:
                    targets.append(target)
            return targets
        return []

    # -- linking -----------------------------------------------------------

    def _add_edge(self, src: Node, dst: Node, line: int) -> None:
        self.edges.setdefault(src, set()).add(dst)
        self.edge_sites.setdefault(src, []).append((dst, line))

    def _link(self) -> None:
        self._collect_bases()
        for module, flow in self.flows.items():
            for qualname in flow.functions:
                self.nodes.add((module, qualname))
        for module, flow in self.flows.items():
            for qualname, info in flow.functions.items():
                node = (module, qualname)
                for name in info.get("locals", []):
                    nested = (module, f"{qualname}.{name}")
                    if nested in self.nodes:
                        self._add_edge(node, nested, info.get("line", 0))
                for call in info.get("calls", []):
                    for target in self._resolve_call(
                            module, qualname, info, call):
                        self._add_edge(node, target, call.get("line", 0))
                for spawn in info.get("spawns", []):
                    for target in self._resolve_call(
                            module, qualname, info, spawn):
                        self.spawned.add(target)
                        self._add_edge(node, target, spawn.get("line", 0))
                for entry in info.get("yields", []):
                    symbol = self._resolve_ref(module, entry.get("ref"))
                    if symbol is not None:
                        self.yielded_classes.setdefault(node, []).append(
                            (entry.get("line", 0), symbol))

    # -- queries -----------------------------------------------------------

    def function_info(self, node: Node) -> Optional[Dict[str, Any]]:
        flow = self.flows.get(node[0])
        if flow is None:
            return None
        return flow.functions.get(node[1])

    def reachable_from(self, roots: Set[Node]) -> Dict[Node, Optional[Node]]:
        """Forward closure; maps each reached node to its BFS parent
        (roots map to None), for reconstructing witness chains."""
        parents: Dict[Node, Optional[Node]] = {
            root: None for root in roots if root in self.nodes
        }
        queue = list(parents)
        while queue:
            current = queue.pop(0)
            for target in sorted(self.edges.get(current, ())):
                if target not in parents:
                    parents[target] = current
                    queue.append(target)
        return parents

    def reverse_reachable(self, seeds: Set[Node]) -> Set[Node]:
        """All nodes that can reach a seed (seeds included)."""
        reverse: Dict[Node, Set[Node]] = {}
        for src, dsts in self.edges.items():
            for dst in dsts:
                reverse.setdefault(dst, set()).add(src)
        found = {seed for seed in seeds if seed in self.nodes}
        queue = list(found)
        while queue:
            current = queue.pop(0)
            for src in reverse.get(current, ()):
                if src not in found:
                    found.add(src)
                    queue.append(src)
        return found

    @staticmethod
    def chain(parents: Dict[Node, Optional[Node]], node: Node) -> List[Node]:
        """Witness path from a root to ``node`` using BFS parents."""
        path = [node]
        seen = {node}
        current: Optional[Node] = node
        while current is not None:
            current = parents.get(current)
            if current is None or current in seen:
                break
            seen.add(current)
            path.append(current)
        path.reverse()
        return path
