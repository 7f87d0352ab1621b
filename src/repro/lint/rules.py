"""The repro-lint rule catalog.

Every rule is a :class:`Rule` subclass with a stable code (``RL001``..),
a one-line title, and an ``explain`` docstring shown by
``repro-lint --explain RL00N``.  Rules receive the parsed module plus the
cross-module :class:`~repro.lint.index.ProjectIndex` and emit
:class:`~repro.lint.engine.Finding` objects.

The catalog is documented for humans in ``docs/static-analysis.md``; keep
the two in sync when adding rules.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.index import (
    ModuleSummary,
    ProjectIndex,
    function_is_generator,
    in_prefixes,
    walk_functions,
)


class Rule:
    """Base class: subclasses set ``code``/``title``/``explain`` and
    implement :meth:`check`."""

    code = "RL000"
    title = "internal"
    explain = ""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` pairs; the engine adds location."""
        raise NotImplementedError
        yield  # pragma: no cover


def _effect_call_name(node: ast.expr, module: ModuleSummary,
                      index: ProjectIndex) -> Optional[str]:
    """If ``node`` is a call constructing an effect (or calling an effect
    factory like ``multi_get``), return the effect's display name."""
    if not isinstance(node, ast.Call):
        return None
    symbol = module.resolve_callable(node.func)
    if index.is_effect_symbol(symbol):
        return symbol[1]
    return None


def _resolve_generator_call(node: ast.expr, module: ModuleSummary,
                            index: ProjectIndex,
                            class_name: Optional[str]) -> Optional[str]:
    """If ``node`` calls a *resolvable* generator coroutine, return its
    display name.  Resolvable means: a local/imported module-level
    generator function, ``self.method`` / ``cls.method`` of the enclosing
    class, or ``LocalClass.method``.  Arbitrary receivers stay unresolved
    (no speculative findings)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        symbol = module.resolve_name(func.id)
        if index.is_generator_symbol(symbol):
            return func.id
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        receiver = func.value.id
        if receiver in ("self", "cls") and class_name is not None:
            if func.attr in index.generator_methods_of(module, class_name):
                return f"{receiver}.{func.attr}"
            return None
        cls = module.classes.get(receiver)
        if cls is not None:
            if func.attr in index.generator_methods_of(module, receiver):
                return f"{receiver}.{func.attr}"
            return None
        symbol = module.resolve_callable(func)
        if index.is_generator_symbol(symbol):
            return f"{receiver}.{func.attr}"
    return None


class RL001DroppedEffect(Rule):
    code = "RL001"
    title = "effect constructed but never yielded"
    explain = """\
Protocol code communicates with its driver exclusively by *yielding*
repro.effects.Request objects: `ok, _ = yield effects.PutIfVersion(...)`.
An effect that is constructed but never yielded is silently dropped -- the
driver never executes it.  The classic instance is a deleted `yield` in
front of a store-conditional write, which skips the LL/SC write-write
conflict check that snapshot isolation depends on and corrupts the run
without any error.

RL001 fires when an effect construction (or a call to an effect factory
such as `multi_get`) appears as

  * a bare expression statement:   `effects.PutIfVersion(space, k, v, ver)`
  * a tuple-unpacking assignment:  `ok, _ = effects.PutIfVersion(...)`
    (unpacking the request object itself -- a deleted `yield`)
  * the operand of `yield from`:   `yield from effects.Get(space, k)`
    (requests are not iterable; use a plain `yield`)

Building an effect and *binding or passing* it is fine -- that is how
batches are assembled:  `puts.append(effects.PutIfVersion(...))`.

Fix: reinstate the `yield` (or pass the effect into the batch that yields
it).  If the construction is intentional, add
`# repro-lint: ignore[RL001]` with a justification.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Expr):
                name = _effect_call_name(stmt.value, module, index)
                if name is not None:
                    yield stmt, (
                        f"effect {name!r} is constructed but never yielded; "
                        f"a dropped `yield` skips the request entirely"
                    )
            elif isinstance(stmt, ast.Assign):
                if any(isinstance(t, (ast.Tuple, ast.List))
                       for t in stmt.targets):
                    name = _effect_call_name(stmt.value, module, index)
                    if name is not None:
                        yield stmt, (
                            f"unpacking effect {name!r} directly -- this "
                            f"looks like a deleted `yield` before the "
                            f"request"
                        )
            elif isinstance(stmt, ast.YieldFrom):
                name = _effect_call_name(stmt.value, module, index)
                if name is not None:
                    yield stmt, (
                        f"`yield from` on effect {name!r}; requests are "
                        f"not iterable -- use a plain `yield`"
                    )


class RL002GeneratorNotDelegated(Rule):
    code = "RL002"
    title = "generator coroutine called without `yield from`"
    explain = """\
Every protocol operation in this repository (Transaction.read,
BTree.insert, TxLog.append, ...) is a generator coroutine.  Calling one
like a plain function only *creates* the generator -- none of its code
runs.  This is the repo's equivalent of an un-awaited coroutine.

RL002 fires when a call to a resolvable generator coroutine appears as

  * a bare expression statement:    `self.abort()`     (nothing runs)
  * `yield` instead of `yield from`: `yield self.read(key)`  (yields the
    generator object to the driver as if it were an effect)
  * `return` inside another generator: `return self.read(key)` (returns
    the raw generator as the coroutine's StopIteration value)

"Resolvable" means the callee is a module-level generator function
(local or imported), `self.<method>` / `cls.<method>` of the enclosing
class, or `LocalClass.<method>`.  Calls through arbitrary receivers are
not flagged -- repro-lint prefers silence over speculation.

Passing a freshly created generator *into* something that drives it
(`sim.spawn(worker())`, `run_direct(txn(), router)`) is fine: the call is
an argument, not a dropped statement.

Fix: delegate with `yield from`, or drive the generator explicitly.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for fn, cls in walk_functions(tree):
            in_generator = function_is_generator(fn)
            for child in ast.iter_child_nodes(fn):
                yield from self._check_body(child, module, index,
                                            in_generator, cls)

    def _check_body(self, node: ast.AST, module: ModuleSummary,
                    index: ProjectIndex, in_generator: bool,
                    cls: Optional[str]) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested defs are walked on their own
        if isinstance(node, ast.Expr) and not isinstance(
                node.value, (ast.Yield, ast.YieldFrom)):
            name = _resolve_generator_call(node.value, module, index, cls)
            if name is not None:
                yield node, (
                    f"generator coroutine {name}(...) called as a plain "
                    f"statement; none of its code runs -- use `yield from`"
                )
        elif isinstance(node, ast.Yield):
            inner = node.value
            name = _resolve_generator_call(inner, module, index, cls) \
                if inner is not None else None
            if name is not None:
                yield node, (
                    f"`yield {name}(...)` hands the raw generator to the "
                    f"driver -- use `yield from {name}(...)`"
                )
        elif isinstance(node, ast.Return) and in_generator:
            name = _resolve_generator_call(node.value, module, index, cls) \
                if node.value is not None else None
            if name is not None:
                yield node, (
                    f"returning un-driven generator {name}(...) from a "
                    f"generator coroutine -- use `return (yield from "
                    f"{name}(...))`"
                )
        for child in ast.iter_child_nodes(node):
            yield from self._check_body(child, module, index,
                                        in_generator, cls)


class RL005SetIteration(Rule):
    code = "RL005"
    title = "iteration over a set"
    explain = """\
Set iteration order in CPython depends on insertion history and hash
randomization of the element types.  In this codebase, iteration order
routinely feeds the scheduler (which request is issued first), result
assembly, and the determinism digest -- so looping over a set literal,
set comprehension, or `set(...)` / `frozenset(...)` call is a latent
nondeterminism bug even when it happens to pass today.

RL005 fires when the iterable of a `for` statement or a comprehension is
a set display, a set comprehension, or a direct `set(...)` /
`frozenset(...)` call.

Fix: iterate a list/tuple, or wrap the set in `sorted(...)` to pin an
order.  Membership *tests* against sets are of course fine.
"""

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        return False

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield it, (
                        "iterating a set: order is nondeterministic and "
                        "feeds scheduling/digests -- use sorted(...) or a "
                        "list"
                    )


class RL006MissingSlots(Rule):
    code = "RL006"
    title = "Request/Delay/Event subclass without __slots__"
    explain = """\
Effect classes (repro.effects.Request subclasses) and the kernel's
Delay/Event are allocated on the hottest paths in the repository -- one
or more per simulated request.  PR 1 established the contract
(docs/performance.md) that every class in these hierarchies declares
`__slots__`: a single slotless subclass re-introduces a per-instance
`__dict__`, roughly doubling allocation cost and memory for every
instance *of that subclass*.  (The kernel resumes a process only on a
yield of exactly `Delay` or `Event`; yielding a subclass instance is a
`TypeError`, slotted or not.)

RL006 fires on any class that resolves (transitively, across the linted
files) to a subclass of Request, Delay, or Event and whose body does not
assign `__slots__`.  Subclasses that add no attributes still need
`__slots__ = ()`.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = module.classes.get(node.name)
            if cls is None or cls.has_slots:
                continue
            if (module.module, node.name) in index.effect_classes:
                base = "repro.effects.Request"
            elif (module.module, node.name) in index.kernel_classes:
                base = "Delay/Event"
            else:
                continue
            yield node, (
                f"class {node.name!r} subclasses {base} but does not "
                f"declare __slots__ (hot-path contract, "
                f"docs/performance.md); add `__slots__ = (...)`"
            )


class RL008BypassedDispatch(Rule):
    code = "RL008"
    title = "dispatcher bypassed from protocol code"
    explain = """\
PR 3 unified request routing into the repro.dispatch pipeline: every
request a protocol coroutine needs served must be *yielded* as an effect
so it flows through the interceptor chain (tracing, fault injection,
retry policy).  Calling the backing components directly from protocol
code -- `cluster.execute(...)`, `commit_manager.start(...)` /
`.set_committed(...)` / `.set_aborted(...)` -- resurrects the pre-PR-3
ad-hoc ladders: the call is invisible to every interceptor, takes no
simulated time, and bypasses fault injection, so recovery scenarios
silently stop covering it.

RL008 fires inside the protocol packages (repro.core, repro.index,
repro.sql, repro.workloads) on any call whose receiver name (or final
attribute) is `cluster` with method `execute` / `execute_scan`, or
`commit_manager` / `manager` with method `start` / `set_committed` /
`set_aborted`.

Drivers (repro.dispatch, repro.bench, repro.api) are exempt: serving
these calls is their job.  Legitimate direct uses -- e.g. the commit
manager's own tid-counter refill -- carry
`# repro-lint: ignore[RL008]` with a justification.
"""

    #: Packages holding protocol coroutines that must yield effects.
    PROTOCOL_PACKAGES: Tuple[str, ...] = (
        "repro.core",
        "repro.index",
        "repro.sql",
        "repro.workloads",
    )

    _CLUSTER_METHODS = frozenset({"execute", "execute_scan"})
    _CM_METHODS = frozenset({"start", "set_committed", "set_aborted"})
    _CLUSTER_NAMES = frozenset({"cluster", "storage_cluster"})
    _CM_NAMES = frozenset({"commit_manager", "manager"})

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        if not in_prefixes(module.module, self.PROTOCOL_PACKAGES):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # Final name of the receiver chain: `a.b.cluster` -> cluster.
            value = func.value
            receiver = value.attr if isinstance(value, ast.Attribute) else (
                value.id if isinstance(value, ast.Name) else None)
            if (receiver in self._CLUSTER_NAMES
                    and func.attr in self._CLUSTER_METHODS):
                yield node, (
                    f"direct `{receiver}.{func.attr}(...)` from protocol "
                    f"module {module.module} bypasses the dispatch "
                    f"pipeline; yield the request as an effect instead"
                )
            elif (receiver in self._CM_NAMES
                    and func.attr in self._CM_METHODS):
                yield node, (
                    f"direct `{receiver}.{func.attr}(...)` from protocol "
                    f"module {module.module} bypasses the dispatch "
                    f"pipeline; yield the commit-manager effect instead"
                )


class RL012IsolationEncapsulation(Rule):
    code = "RL012"
    title = "isolation state touched outside the module that owns it"
    explain = """\
Read-set and commit-validation state each have one owner.  The
per-transaction read set (`txn._read_keys`: a dict under wsi/ssi, None
under si) belongs to repro.core.transaction, which fills it in
`read_many` / `note_scanned` and ships it in the one `ValidateCommit`
of the commit pipeline.  The validator's window (`_commit_window`,
`_validation_horizon`) belongs to the repro.core.isolation package.
Library code elsewhere that reads or writes these attributes directly
hardwires one mode's representation into shared code: it breaks under
si (there is no read set), silently desynchronizes the validator
window, and lets a second place decide what a transaction has read.

RL012 fires on any attribute access (load, store, or delete) named
`_read_keys`, `_commit_window`, or `_validation_horizon` in a
`repro.*` module outside that name's owner.  Code that needs the read
set goes through the transaction's surface instead: `txn.tracks_reads`
/ `txn.note_scanned(...)` / the yielded `effects.ValidateCommit`
request.  Tests and tools are out of scope (their module names are not
under `repro.`).
"""

    #: Private attribute -> the one module or package allowed to touch it.
    OWNERS = {
        "_read_keys": "repro.core.transaction",
        "_commit_window": "repro.core.isolation",
        "_validation_horizon": "repro.core.isolation",
    }

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        name = module.module
        if not in_prefixes(name, ("repro",)):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = self.OWNERS.get(node.attr)
            if owner is not None and not in_prefixes(name, (owner,)):
                yield node, (
                    f"module {name} touches isolation state "
                    f"`{node.attr}` directly; only {owner} may -- go "
                    f"through the transaction's surface "
                    f"(tracks_reads / note_scanned / ValidateCommit)"
                )


WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "sleep",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})


class RF001WallClockOrUnseededRng(Rule):
    code = "RF001"
    title = "wall-clock time outside repro.bench, or unseeded RNG"
    explain = """\
Everything in repro.* except repro.bench runs on *simulated* time: the
event kernel's clock, advanced deterministically by the scheduler.
Reading the wall clock (time.time, time.monotonic, time.perf_counter,
time.sleep, ...) there has two failure modes: the value has nothing to
do with simulated time, and -- worse -- it differs between runs, so the
"fixed seed reproduces the exact same run" contract of
repro/sim/kernel.py is broken in a way the digest-invariance harness can
only detect after the fact.

RF001 reports any wall-clock use (an attribute of the `time` module, or
a `from time import ...` of one) in a repro.* module outside
repro.bench.  repro.bench is exempt: measuring real elapsed time is its
job.  Code outside repro.* (tests, examples, benchmarks) is out of
scope for the clock.

Randomness must come only from an explicitly seeded
`random.Random(seed)` threaded through from the caller.  The
module-level functions (`random.random()`, `random.choice()`, ...)
share one process-global, unseeded generator, and an argument-less
`random.Random()` seeds from the OS; either sneaks nondeterminism past
the determinism digest and leaks state between runs.  RF001 reports
those in every linted module.

Fix by taking time from the simulator (`sim.now`, or the dispatch
context's `ctx.clock.now`) and randomness from a
`random.Random(seed)` threaded through the deployment, the way
repro.workloads and repro.bench.simcluster do.
"""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[ast.AST, str]]:
        name = module.module
        clock_scope = (in_prefixes(name, ("repro",))
                       and not in_prefixes(name, ("repro.bench",)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                rng = self._unseeded_rng(node, module)
                if rng is not None:
                    yield node, (
                        f"unseeded RNG `{rng}`; thread a seeded "
                        f"random.Random through instead"
                    )
            if not clock_scope:
                continue
            clock = None
            if (isinstance(node, ast.ImportFrom) and node.module == "time"
                    and not node.level):
                clock = next((alias.name for alias in node.names
                              if alias.name in WALL_CLOCK_ATTRS), None)
            elif (isinstance(node, ast.Attribute)
                    and node.attr in WALL_CLOCK_ATTRS
                    and isinstance(node.value, ast.Name)
                    and module.resolve_qualifier(node.value.id) == "time"):
                clock = node.attr
            if clock is not None:
                yield node, (
                    f"`time.{clock}` in {name}: only repro.bench may read "
                    f"the host clock; take time from the simulator"
                )

    @staticmethod
    def _unseeded_rng(node: ast.Call, module: ModuleSummary) -> Optional[str]:
        func = node.func
        seeded = bool(node.args or node.keywords)
        if isinstance(func, ast.Name):
            if module.resolve_name(func.id) == ("random", "Random") \
                    and not seeded:
                return "Random()"
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and module.resolve_qualifier(func.value.id) == "random"):
            if func.attr not in ("Random", "SystemRandom"):
                return f"random.{func.attr}"
            if func.attr == "Random" and not seeded:
                return "random.Random()"
        return None


#: Every rule, in ``--list-rules`` order.
ALL_RULES: List[Rule] = [
    RL001DroppedEffect(),
    RL002GeneratorNotDelegated(),
    RL005SetIteration(),
    RL006MissingSlots(),
    RL008BypassedDispatch(),
    RL012IsolationEncapsulation(),
    RF001WallClockOrUnseededRng(),
]
