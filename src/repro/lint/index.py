"""Symbol index for repro-lint.

The interesting rules (RL001/RL002/RL006) need to know, for an arbitrary
call or class definition, whether a name refers to an *effect class* (a
subclass of :class:`repro.effects.Request`), a *generator coroutine*
(a function whose body contains ``yield``), or one of the simulation
kernel's hot classes (``Delay``/``Event``).  A single file rarely contains
enough information to decide, so the engine first summarizes every module
(imports, generator functions, classes and their bases) and then resolves
names through those summaries.

Resolution is deliberately name-based, not type-inferring: a symbol
resolves to ``(module, name)`` through the file's import table, and class
bases are chased to a fixpoint across all indexed modules.  Method calls
are resolved only through ``self``/a locally defined class, never through
arbitrary receiver expressions -- an unresolvable receiver produces *no*
finding rather than a speculative one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

Symbol = Tuple[str, str]  # (dotted module, name)

#: A reference to a not-yet-resolved name:
#: ``("name", id)`` for a bare name, ``("qual", base, attr)`` for
#: ``base.attr``.  Resolved against a module's import table.
NameRef = Tuple[str, ...]

#: Effect classes every repro tree is assumed to have, so single-file
#: fixtures (and partial lint runs) resolve them without parsing
#: repro/effects.py itself.  Discovery extends this set transitively.
EFFECT_CLASS_SEEDS: Set[Symbol] = {
    ("repro.effects", name)
    for name in (
        "Request",
        "StoreRequest",
        "Get",
        "Put",
        "PutIfVersion",
        "Delete",
        "DeleteIfVersion",
        "Increment",
        "Scan",
        "Batch",
        "CommitManagerRequest",
        "StartTransaction",
        "ReportCommitted",
        "ReportAborted",
        "ValidateCommit",
        "Compute",
        "Sleep",
    )
}

#: The simulation kernel's hot classes: subclasses share the Request
#: __slots__ contract (docs/performance.md) and are covered by RL006.
KERNEL_CLASS_SEEDS: Set[Symbol] = {
    (module, name)
    for module in ("repro.sim.kernel", "repro.sim")
    for name in ("Delay", "Event")
}

#: Functions that *return* an effect/kernel object; calling one and
#: dropping the result is the same bug as dropping a constructor call.
EFFECT_FACTORY_SEEDS: Set[Symbol] = {
    ("repro.effects", "multi_get"),
    ("repro.effects", "multi_put"),
}


def function_is_generator(fn: ast.AST) -> bool:
    """True if ``fn``'s own body contains ``yield`` / ``yield from``
    (yields inside nested defs/lambdas do not count)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def walk_functions(
        tree: ast.AST) -> Iterator[Tuple[FunctionNode, Optional[str]]]:
    """Every function/method under ``tree`` in source order, as
    ``(node, enclosing class name)``.  A nested def keeps its parent's
    class."""

    def visit(node: ast.AST, class_name: Optional[str]
              ) -> Iterator[Tuple[FunctionNode, Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, class_name
                yield from visit(child, class_name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                yield from visit(child, class_name)

    return visit(tree, None)


def name_ref_of(node: ast.expr) -> Optional[NameRef]:
    """Serializable reference for ``Name`` / ``Name.attr`` expressions."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return ("qual", node.value.id, node.attr)
    return None


class ClassSummary:
    """What RL002/RL006 need to know about one class definition.  Pure
    data."""

    __slots__ = ("name", "base_refs", "generator_methods", "has_slots",
                 "local_base_names")

    def __init__(self, name: str, base_refs: List[NameRef]) -> None:
        self.name = name
        self.base_refs = base_refs
        self.generator_methods: Set[str] = set()
        self.has_slots = False
        self.local_base_names: List[str] = [
            ref[1] for ref in base_refs if ref[0] == "name"
        ]

    @classmethod
    def from_ast(cls, node: ast.ClassDef) -> "ClassSummary":
        base_refs = [
            ref for ref in (name_ref_of(base) for base in node.bases)
            if ref is not None
        ]
        summary = cls(node.name, base_refs)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if function_is_generator(item):
                    summary.generator_methods.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets: List[ast.expr] = list(item.targets) \
                    if isinstance(item, ast.Assign) else [item.target]
                if any(isinstance(target, ast.Name)
                       and target.id == "__slots__" for target in targets):
                    summary.has_slots = True
        return summary


class ModuleSummary:
    """Imports and definitions of one module, for name resolution."""

    def __init__(self, module: str, tree: Optional[ast.Module] = None) -> None:
        self.module = module
        # local alias -> dotted module ("import repro.effects as fx")
        self.module_aliases: Dict[str, str] = {}
        # local alias -> (defining module, original name)
        self.from_imports: Dict[str, Symbol] = {}
        self.generator_functions: Set[str] = set()
        self.classes: Dict[str, ClassSummary] = {}
        if tree is not None:
            self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import a.b" binds "a"; "import a.b as c" binds c->a.b
                    self.module_aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:  # relative import: anchor at this package
                    parts = self.module.split(".")
                    anchor = parts[: max(len(parts) - node.level, 0)]
                    source = ".".join(anchor + ([source] if source else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = (source, alias.name)
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = ClassSummary.from_ast(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if function_is_generator(node):
                    self.generator_functions.add(node.name)

    # -- name resolution -------------------------------------------------

    def resolve_name(self, name: str) -> Optional[Symbol]:
        """Resolve a bare name used in this module to ``(module, symbol)``."""
        if name in self.from_imports:
            return self.from_imports[name]
        if name in self.classes or name in self.generator_functions:
            return (self.module, name)
        return None

    def resolve_qualifier(self, name: str) -> Optional[str]:
        """Resolve a name used as an attribute base to a dotted module."""
        if name in self.module_aliases:
            return self.module_aliases[name]
        if name in self.from_imports:
            # "from repro import effects" -> effects is repro.effects
            module, symbol = self.from_imports[name]
            return f"{module}.{symbol}" if module else symbol
        return None

    def resolve_ref(self, ref: Optional[NameRef]) -> Optional[Symbol]:
        """Resolve a :data:`NameRef` to a symbol, or None."""
        if ref is None:
            return None
        if ref[0] == "name":
            return self.resolve_name(ref[1])
        if ref[0] == "qual":
            qualifier = self.resolve_qualifier(ref[1])
            if qualifier is not None:
                return (qualifier, ref[2])
        return None

    def resolve_callable(self, func: ast.expr) -> Optional[Symbol]:
        """Resolve the callee of a Call to a symbol, or None.

        Handles ``name(...)`` and ``mod.name(...)``; receiver expressions
        other than an imported module are left unresolved on purpose.
        """
        return self.resolve_ref(name_ref_of(func))


class ProjectIndex:
    """Cross-module view: effect-class closure + generator registry."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        self.effect_classes: Set[Symbol] = set(EFFECT_CLASS_SEEDS)
        self.kernel_classes: Set[Symbol] = set(KERNEL_CLASS_SEEDS)
        self.effect_factories: Set[Symbol] = set(EFFECT_FACTORY_SEEDS)
        self._close_subclasses(self.effect_classes)
        self._close_subclasses(self.kernel_classes)

    def _close_subclasses(self, closure: Set[Symbol]) -> None:
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for cls in summary.classes.values():
                    symbol = (summary.module, cls.name)
                    if symbol in closure:
                        continue
                    for base in cls.base_refs:
                        resolved = self._resolve_base(summary, base)
                        if resolved is not None and resolved in closure:
                            closure.add(symbol)
                            changed = True
                            break

    @staticmethod
    def _resolve_base(summary: ModuleSummary,
                      base: NameRef) -> Optional[Symbol]:
        resolved = summary.resolve_ref(base)
        if resolved is not None:
            return resolved
        if base[0] == "name":
            return (summary.module, base[1])  # forward/local reference
        return None

    # -- queries used by the rules ---------------------------------------

    def is_effect_symbol(self, symbol: Optional[Symbol]) -> bool:
        return symbol is not None and (
            symbol in self.effect_classes or symbol in self.effect_factories
        )

    def is_generator_symbol(self, symbol: Optional[Symbol]) -> bool:
        if symbol is None:
            return False
        module, name = symbol
        summary = self.summaries.get(module)
        return summary is not None and name in summary.generator_functions

    def generator_methods_of(self, summary: ModuleSummary,
                             class_name: str) -> Set[str]:
        """Generator methods of ``class_name`` including locally defined
        base classes (single module, name-based MRO approximation)."""
        methods: Set[str] = set()
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cls = summary.classes.get(name)
            if cls is None:
                continue
            methods.update(cls.generator_methods)
            stack.extend(cls.local_base_names)
        return methods


def in_prefixes(module: str, prefixes: Sequence[str]) -> bool:
    """True if ``module`` is one of ``prefixes`` or nested under one."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)
