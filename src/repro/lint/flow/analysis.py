"""Reachability over the linked call graph.

One classification drives the RF rules: **sim-time-reachable** -- the
forward closure from the simulation entry points: every function (and
module body) in the simulated-time packages plus every generator
resolved as a ``spawn(...)``/``run_direct(...)`` argument.  RF001
reports wall-clock facts inside this set, and unseeded-RNG facts
anywhere.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.lint.flow.callgraph import CallGraph, Node
from repro.lint.flow.summary import SIMULATED_TIME_PACKAGES, ModuleFlow
from repro.lint.index import ProjectIndex, in_prefixes


def format_node(node: Node) -> str:
    return f"{node[0]}.{node[1]}"


class FlowAnalysis:
    """Project-wide flow facts, computed once per lint run."""

    def __init__(self, index: ProjectIndex,
                 flows: Dict[str, ModuleFlow]) -> None:
        self.index = index
        self.flows = flows
        self.graph = CallGraph(index, flows)
        self.sim_parents = self._compute_sim_reach()

    def _compute_sim_reach(self) -> Dict[Node, Optional[Node]]:
        roots: Set[Node] = set(self.graph.spawned)
        for node in self.graph.nodes:
            if in_prefixes(node[0], SIMULATED_TIME_PACKAGES):
                roots.add(node)
        return self.graph.reachable_from(roots)
