"""Fixpoint taint propagation over the linked call graph.

Three classifications drive the RF rules:

* **sim-time-reachable** -- forward closure from the simulation entry
  points: every function (and module body) in the simulated-time
  packages plus every generator resolved as a ``spawn(...)``/
  ``run_direct(...)`` argument.  RF001 reports wall-clock facts inside
  this set, and unseeded-RNG facts anywhere.
* **protocol-mutation tainted** -- reverse closure from every function
  with a recorded protocol-mutation fact; **obs tainted** -- reverse
  closure from the repro.obs modules and every function with an obs
  fact.  RF004 reports a sanitizer observer's own facts and its edges
  into either set.
* **routable** -- effect classes a dispatcher can classify: those whose
  class body, or an ancestor's, declares the ``kind`` that
  :func:`repro.dispatch.kind_of` reads.  RF002/RF003 report yields and
  class definitions outside that closure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.lint.flow.atomic import AtomicAnalysis
from repro.lint.flow.callgraph import CallGraph, Node
from repro.lint.flow.summary import (
    OBS_PACKAGE,
    PROTOCOL_MUTATORS,
    SAN_DRIVER_MODULES,
    SAN_PACKAGE,
    SIMULATED_TIME_PACKAGES,
    ModuleFlow,
)
from repro.lint.index import ProjectIndex, Symbol, in_prefixes


def format_node(node: Node) -> str:
    return f"{node[0]}.{node[1]}"


class FlowAnalysis:
    """Project-wide flow facts, computed once per lint run."""

    def __init__(self, index: ProjectIndex,
                 flows: Dict[str, ModuleFlow]) -> None:
        self.index = index
        self.flows = flows
        self.graph = CallGraph(index, flows)
        #: The yield-point interleaving and typestate analysis the RA
        #: rules consume.
        self.atomic = AtomicAnalysis(self.graph)
        self.sim_parents = self._compute_sim_reach()
        #: Linted effect classes whose body declares ``kind``
        #: (RF002/RF003): a class routes iff it inherits from one.
        self.kind_declarers: Set[Symbol] = {
            (module, cls.name)
            for module, summary in index.summaries.items()
            for cls in summary.classes.values()
            if cls.declares_kind
            and (module, cls.name) in index.effect_classes
        }
        self.mutation_tainted = self.graph.reverse_reachable(
            self._mutation_sources())
        self.obs_tainted = self.graph.reverse_reachable(
            self._obs_sources())
        self._routable_cache: Dict[Symbol, bool] = {}

    # -- reachability ------------------------------------------------------

    def _compute_sim_reach(self) -> Dict[Node, Optional[Node]]:
        roots: Set[Node] = set(self.graph.spawned)
        for node in self.graph.nodes:
            if in_prefixes(node[0], SIMULATED_TIME_PACKAGES):
                roots.add(node)
        return self.graph.reachable_from(roots)

    # -- dispatch routability (RF002/RF003) --------------------------------

    @property
    def has_dispatch_info(self) -> bool:
        """False when no kind-declaring effect class was linted (a run
        without ``repro/effects.py``): RF002/RF003 stay silent rather
        than calling everything unroutable."""
        return bool(self.kind_declarers)

    def is_routable(self, symbol: Symbol) -> bool:
        """Can :func:`repro.effects.kind_of` classify this class?"""
        cached = self._routable_cache.get(symbol)
        if cached is not None:
            return cached
        result = any(
            self.graph.is_subclass(symbol, base)
            for base in self.kind_declarers
        )
        self._routable_cache[symbol] = result
        return result

    def effect_leaves(self) -> Set[Symbol]:
        """Concrete effect classes: members of the Request closure that
        no linted class subclasses (abstract bases are wired through
        their subclasses, not directly)."""
        subclassed: Set[Symbol] = set()
        for bases in self.graph.bases_of.values():
            subclassed.update(bases)
        return {
            symbol for symbol in self.index.effect_classes
            if symbol not in subclassed
        }

    # -- sanitizer isolation (RF004) ---------------------------------------

    @staticmethod
    def is_san_observer_module(module: str) -> bool:
        return (in_prefixes(module, (SAN_PACKAGE,))
                and module not in SAN_DRIVER_MODULES)

    def _mutation_sources(self) -> Set[Node]:
        sources: Set[Node] = set()
        for module, flow in self.flows.items():
            protocol_module = in_prefixes(module, SIMULATED_TIME_PACKAGES)
            for qualname, info in flow.functions.items():
                if info.get("facts", {}).get("mutates"):
                    sources.add((module, qualname))
                    continue
                # Protocol mutator methods are sources themselves:
                # `CommitManager.start` mutates through `self`, which the
                # call-site fact heuristic cannot see.
                if (protocol_module and "." in qualname
                        and info.get("cls") is not None
                        and qualname.rsplit(".", 1)[1] in PROTOCOL_MUTATORS):
                    sources.add((module, qualname))
        return sources

    def _obs_sources(self) -> Set[Node]:
        sources: Set[Node] = set()
        for node in self.graph.nodes:
            if in_prefixes(node[0], (OBS_PACKAGE,)):
                sources.add(node)
        for module, flow in self.flows.items():
            for qualname, info in flow.functions.items():
                if info.get("facts", {}).get("obs"):
                    sources.add((module, qualname))
        for node, externals in self.graph.external.items():
            for symbol, _line in externals:
                if in_prefixes(symbol[0], (OBS_PACKAGE,)):
                    sources.add(node)
        return sources

    def taint_witness(self, start: Node, tainted: Set[Node],
                      fact_kind: str) -> List[Node]:
        """Forward path from ``start`` to the nearest function carrying
        the taint's defining fact (the call chain shown in RF004)."""
        parents: Dict[Node, Optional[Node]] = {start: None}
        queue = [start]
        while queue:
            current = queue.pop(0)
            info = self.graph.function_info(current)
            facts = (info or {}).get("facts", {})
            is_sink = bool(facts.get(fact_kind)) or (
                fact_kind == "obs"
                and in_prefixes(current[0], (OBS_PACKAGE,))
            )
            if is_sink:
                return self.graph.chain(parents, current)
            for target in sorted(self.graph.edges.get(current, ())):
                if target in tainted and target not in parents:
                    parents[target] = current
                    queue.append(target)
        return [start]
