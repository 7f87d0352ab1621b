"""The RF rule family: flow rules evaluated on the project call graph.

RF rules report the facts :mod:`repro.lint.flow.summary` extracts, closed
over the call graph: RF001 flags a ``time.time()`` *reachable from* a
simulation entry point through any call chain (a chain of length zero
when it is written in a simulated-time package), and prints the chain.
They read the :class:`FlowAnalysis` the engine attaches to the project
index.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.flow.analysis import FlowAnalysis, format_node
from repro.lint.flow.callgraph import Node
from repro.lint.flow.summary import OBS_PACKAGE
from repro.lint.index import ModuleSummary, ProjectIndex, in_prefixes
from repro.lint.rules import Rule


class _Loc:
    """Line/column anchor for findings that have no AST node (flow facts
    are reported from the flow summaries, not an AST node)."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


class FlowRule(Rule):
    """Base: fetch the analysis off the index, delegate to _check_flow."""

    def check(self, module: ModuleSummary, tree: ast.Module,
              index: ProjectIndex) -> Iterator[Tuple[Any, str]]:
        yield from self._check_flow(module, index.flow)

    def _check_flow(self, module: ModuleSummary,
                    analysis: FlowAnalysis) -> Iterator[Tuple[_Loc, str]]:
        raise NotImplementedError
        yield  # pragma: no cover


def _module_nodes(module: ModuleSummary,
                  analysis: FlowAnalysis) -> List[Tuple[Node, Dict[str, Any]]]:
    """(node, function info) pairs of the module under check, sorted."""
    flow = analysis.flows.get(module.module)
    if flow is None:
        return []
    return [
        ((module.module, qualname), info)
        for qualname, info in sorted(flow.functions.items())
    ]


def _via(analysis: FlowAnalysis,
         parents: Dict[Node, Optional[Node]], node: Node) -> str:
    chain = analysis.graph.chain(parents, node)
    if len(chain) <= 1:
        return ""
    return " (via " + " -> ".join(format_node(s) for s in chain) + ")"


class RF001WallClockReachableFromSim(FlowRule):
    code = "RF001"
    title = "wall-clock time reachable from simulated time, or unseeded RNG"
    explain = """\
Code under repro.sim / core / store / index / net / runtime / baselines
runs on *simulated* time: the event kernel's clock, advanced
deterministically by the scheduler.  Reading the wall clock (time.time,
time.monotonic, time.perf_counter, time.sleep, ...) from that code has
two failure modes: the value has nothing to do with simulated time, and
-- worse -- it differs between runs, so the "fixed seed reproduces the
exact same run" contract of repro/sim/kernel.py is broken in a way the
digest-invariance harness can only detect after the fact.  The contract
is transitive: a `time.time()` three calls deep in a helper module is
as fatal as one inline in repro.core.

RF001 computes the forward closure of every simulation entry point --
all functions and module bodies of the simulated-time packages plus
every generator handed to `spawn(...)` or `run_direct(...)` -- and
reports any wall-clock use inside it (an attribute of the `time`
module, or a `from time import ...` of one), with the call chain that
reaches it.  repro.bench is outside the closure: measuring real elapsed
time is its job.

Randomness must come only from an explicitly seeded
`random.Random(seed)` threaded through from the caller.  The
module-level functions (`random.random()`, `random.choice()`, ...)
share one process-global, unseeded generator, and an argument-less
`random.Random()` seeds from the OS; either sneaks nondeterminism past
the determinism digest and leaks state between runs.  RF001 reports
those in every linted module, reachable or not.

Fix by taking time from the simulator (`sim.now`, or the dispatch
context's `ctx.clock.now`) and randomness from a
`random.Random(seed)` threaded through the deployment, the way
repro.workloads and repro.bench.simcluster do.
"""

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        for node, info in _module_nodes(module, analysis):
            facts = info["facts"]
            if node not in analysis.sim_parents:
                for fact in facts.get("rng", []):
                    yield _Loc(fact["line"]), (
                        f"unseeded RNG `{fact['what']}` in "
                        f"`{format_node(node)}`; thread a seeded "
                        f"random.Random through instead"
                    )
                continue
            via = _via(analysis, analysis.sim_parents, node)
            for fact in facts.get("wall_clock", []):
                yield _Loc(fact["line"]), (
                    f"`{fact['what']}` in `{format_node(node)}` is "
                    f"reachable from simulated time{via}; take time from "
                    f"the simulator, not the host clock"
                )
            for fact in facts.get("rng", []):
                yield _Loc(fact["line"]), (
                    f"unseeded RNG `{fact['what']}` in "
                    f"`{format_node(node)}` is reachable from simulated "
                    f"time{via}; thread a seeded random.Random through "
                    f"the deployment"
                )


class RF002UnroutableYield(FlowRule):
    code = "RF002"
    title = "yielded effect cannot reach any dispatcher"
    explain = """\
An effect coroutine communicates only through the `Request` objects it
yields; a request class no dispatcher can classify is silently dropped
by drivers that skip unknown kinds -- or raises `TypeError: unroutable
request` at runtime, far from the yield that produced it.  RF002
resolves every `yield SomeRequest(...)` construction against the
classes `kind_of` can classify -- those whose body, or an ancestor's,
declares `kind` -- and reports yields of classes outside that closure.

Fix by declaring `kind = KIND_...` in the class body or deriving it
from a concrete effect class (`Get`, `Scan`, `Batch`, ...).
"""

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        if not analysis.has_dispatch_info:
            return
        for node, _info in _module_nodes(module, analysis):
            for line, symbol in analysis.graph.yielded_classes.get(node, []):
                if symbol not in analysis.index.effect_classes:
                    continue
                if analysis.is_routable(symbol):
                    continue
                yield _Loc(line), (
                    f"`{format_node(node)}` yields "
                    f"`{symbol[0]}.{symbol[1]}`, which no dispatcher can "
                    f"route (neither it nor an ancestor declares `kind`); "
                    f"the effect would fail at dispatch, not at the yield"
                )


class RF003UnregisteredRequestClass(FlowRule):
    code = "RF003"
    title = "concrete Request subclass not wired into dispatch"
    explain = """\
Dispatcher exhaustiveness as a lint error instead of a runtime one:
every concrete (leaf) subclass of `repro.effects.Request` must classify
to a kind -- declared in its own body or inherited from an ancestor.
Adding a request class without one otherwise surfaces as `TypeError:
unroutable request` the first time a workload yields it; RF003 reports
it at the class definition.
"""

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        if not analysis.has_dispatch_info:
            return
        leaves = analysis.effect_leaves()
        for name, cls in sorted(module.classes.items()):
            symbol = (module.module, name)
            if symbol not in leaves:
                continue
            if analysis.is_routable(symbol):
                continue
            yield _Loc(cls.lineno, cls.col_offset), (
                f"request class `{name}` declares no `kind` and inherits "
                f"none; yielding it raises `TypeError: unroutable "
                f"request` at runtime"
            )


class RF004SanitizerIsolationLeak(FlowRule):
    code = "RF004"
    title = "sanitizer mutates protocol state or uses repro.obs"
    explain = """\
The sanitizers under repro.san are strictly *observational*: they watch
the request stream, maintain their own shadow history, and must never
change the run they are checking.  A sanitizer that mutates a protocol
object -- assigning an attribute on a record/snapshot/transaction, or
calling a mutating method on the store, commit manager, or a
transaction -- silently perturbs the very interleaving under test and
turns the checker into a heisenbug generator.  (It can also mask the bug
being hunted: "fixing" a version chain before the axiom check runs.)
They must also stay independent of the repro.obs metrics/tracing layer
they cross-check: metric values would otherwise depend on whether a
sanitizer is attached (breaking obs snapshot determinism), and a tracing
bug could perturb a sanitized run.

Both contracts are transitive: an observer that calls a helper that
calls `store.put(...)` perturbs the run exactly as a direct call would.
RF004 fires inside the observer modules of repro.san on

  * the observer's own statements: an attribute (or subscript) store on
    a receiver named like a protocol object (`record`, `snapshot`,
    `txn`, `cluster`, `manager`, `node`, ...) and not rooted at
    `self`/`cls`, a method call on one outside the read-only accessor
    allow-list (`version_numbers`, `latest_visible`, `as_pair`,
    `active_transactions`, ...), an `import repro.obs` (or `from
    repro.obs... import`), or a call on an observability object (`obs`,
    `tracer`, `registry`, `span`);
  * every call edge from an observer into a function that reaches such a
    statement, or the repro.obs modules, through any chain -- printed
    with the message.

Sanitizer-owned state must therefore avoid protocol receiver names:
shadow cells are `sc`, transaction views are `view`, the history is
`shadow`.  The driver modules (`repro.san.scenarios`, `.explorer`,
`.__main__`) own their deployments and are exempt.  Genuinely read-only
uses that trip the name heuristic carry `# repro-lint: ignore[RF004]`
with a justification.
"""

    _SHADOW = "observers must stay pure shadows of the protocol"
    _INDEPENDENT = "sanitizers must cross-check metrics, not depend on them"

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        if not analysis.is_san_observer_module(module.module):
            return
        for node, info in _module_nodes(module, analysis):
            facts = info["facts"]
            where = f"sanitizer `{format_node(node)}`"
            # One finding per line: a statement that is a fact itself
            # is not reported again for the edges it also makes.
            reported: Set[int] = set()
            for kind, advice in (("mutates", self._SHADOW),
                                 ("obs", self._INDEPENDENT)):
                for fact in facts.get(kind, []):
                    reported.add(fact["line"])
                    yield _Loc(fact["line"]), (
                        f"{where} {fact['what']}; {advice}")
            for target, line in analysis.graph.edge_sites.get(node, []):
                if line in reported or \
                        analysis.is_san_observer_module(target[0]):
                    continue
                if target in analysis.mutation_tainted:
                    witness = analysis.taint_witness(
                        target, analysis.mutation_tainted, "mutates")
                    reached, advice = "protocol-mutating code", self._SHADOW
                elif (target in analysis.obs_tainted
                      or in_prefixes(target[0], (OBS_PACKAGE,))):
                    witness = analysis.taint_witness(
                        target, analysis.obs_tainted, "obs")
                    reached, advice = "the repro.obs layer", \
                        self._INDEPENDENT
                else:
                    continue
                reported.add(line)
                path = " -> ".join(format_node(s) for s in witness)
                yield _Loc(line), (
                    f"{where} calls `{format_node(target)}`, which "
                    f"reaches {reached} ({path}); {advice}"
                )
            for symbol, line in analysis.graph.external.get(node, []):
                if line not in reported and \
                        in_prefixes(symbol[0], (OBS_PACKAGE,)):
                    reported.add(line)
                    yield _Loc(line), (
                        f"{where} uses `{symbol[0]}.{symbol[1]}` from the "
                        f"repro.obs layer; {self._INDEPENDENT}"
                    )


FLOW_RULES: List[Rule] = [
    RF001WallClockReachableFromSim(),
    RF002UnroutableYield(),
    RF003UnregisteredRequestClass(),
    RF004SanitizerIsolationLeak(),
]
