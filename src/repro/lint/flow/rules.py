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
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.flow.analysis import FlowAnalysis, format_node
from repro.lint.flow.callgraph import Node
from repro.lint.index import ModuleSummary, ProjectIndex
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


FLOW_RULES: List[Rule] = [
    RF001WallClockReachableFromSim(),
]
