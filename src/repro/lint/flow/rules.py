"""The RF rule family: flow rules evaluated on the project call graph.

RF rules are the transitive closures of the module-local RL rules: where
RL003 flags a ``time.time()`` *written in* a simulated-time package,
RF001 flags one *reachable from* a simulation entry point through any
call chain, and prints the chain.  They only run under
``repro-lint --flow`` and require the :class:`FlowAnalysis` the engine
attaches to the project index.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.flow.analysis import FlowAnalysis, format_node
from repro.lint.flow.callgraph import Node
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
        analysis = getattr(index, "flow", None)
        if analysis is None:
            return
        for loc, message in self._check_flow(module, analysis):
            yield loc, message

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
    title = "wall-clock or unseeded RNG reachable from a sim entry point"
    explain = """\
The simulator's determinism contract (RL003/RL004) is transitive: a
`time.time()` or unseeded `random.*` call is just as fatal three calls
deep in a helper module as it is inline in repro.core.  RF001 computes
the forward closure of every simulation entry point -- all functions in
the simulated-time packages plus every generator handed to `spawn(...)`
or `run_direct(...)` -- and reports any wall-clock/RNG fact inside it,
with the call chain that reaches it.

Fix by taking time from the kernel (`yield Now()` / context clock) and
randomness from a `random.Random(seed)` threaded through the deployment.
"""

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        for node, info in _module_nodes(module, analysis):
            if node not in analysis.sim_parents:
                continue
            via = _via(analysis, analysis.sim_parents, node)
            facts = info.get("facts", {})
            for fact in facts.get("wall_clock", []):
                yield _Loc(fact["line"]), (
                    f"`{fact.get('what', 'wall clock')}` in "
                    f"`{format_node(node)}` is reachable from simulated "
                    f"time{via}; take time from the simulator, not the "
                    f"host clock"
                )
            for fact in facts.get("rng", []):
                yield _Loc(fact["line"]), (
                    f"unseeded RNG `{fact.get('what', 'random')}` in "
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
    title = "sanitizer shadow code reaches mutating or obs code"
    explain = """\
`repro.san` observers must stay pure shadows of the protocol (RL009)
and independent of the metrics layer they cross-check (RL010) -- and
both contracts are transitive: an observer that calls a helper that
calls `store.put(...)` perturbs the run exactly as a direct call would.
RF004 computes the reverse closure of every protocol-mutation fact and
of the `repro.obs` modules, and reports any call edge from a sanitizer
observer module into either set, with the chain to the offending call.

San driver modules (`repro.san.scenarios`, `.explorer`, `.__main__`)
own their deployments and are exempt, as in RL009.
"""

    def _check_flow(self, module: ModuleSummary, analysis: FlowAnalysis
                    ) -> Iterator[Tuple[_Loc, str]]:
        if not analysis.is_san_observer_module(module.module):
            return
        for node, _info in _module_nodes(module, analysis):
            seen = set()
            for target, line in analysis.graph.edge_sites.get(node, []):
                if (target, line) in seen:
                    continue
                seen.add((target, line))
                if analysis.is_san_observer_module(target[0]):
                    continue
                if target in analysis.mutation_tainted:
                    witness = analysis.taint_witness(
                        target, analysis.mutation_tainted, "mutates")
                    path = " -> ".join(format_node(s) for s in witness)
                    yield _Loc(line), (
                        f"sanitizer `{format_node(node)}` calls "
                        f"`{format_node(target)}`, which reaches "
                        f"protocol-mutating code ({path}); observers "
                        f"must stay pure shadows"
                    )
                elif (target in analysis.obs_tainted
                      or in_prefixes(target[0], ("repro.obs",))):
                    witness = analysis.taint_witness(
                        target, analysis.obs_tainted, "obs")
                    path = " -> ".join(format_node(s) for s in witness)
                    yield _Loc(line), (
                        f"sanitizer `{format_node(node)}` calls "
                        f"`{format_node(target)}`, which reaches the "
                        f"repro.obs layer ({path}); sanitizers must "
                        f"cross-check metrics, not depend on them"
                    )
            for symbol, line in analysis.graph.external.get(node, []):
                if in_prefixes(symbol[0], ("repro.obs",)):
                    yield _Loc(line), (
                        f"sanitizer `{format_node(node)}` uses "
                        f"`{symbol[0]}.{symbol[1]}` from the repro.obs "
                        f"layer; sanitizers must cross-check metrics, "
                        f"not depend on them"
                    )


FLOW_RULES: List[Rule] = [
    RF001WallClockReachableFromSim(),
    RF002UnroutableYield(),
    RF003UnregisteredRequestClass(),
    RF004SanitizerIsolationLeak(),
]

FLOW_RULES_BY_CODE = {rule.code: rule for rule in FLOW_RULES}
