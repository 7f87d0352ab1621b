"""repro-flow: interprocedural call-graph and taint analysis.

This package is the substrate behind repro-lint's RF rules: it
extracts a serializable per-module summary of every function (calls,
receiver bindings, yields, determinism and isolation facts), links the
summaries into a project-wide call graph, runs fixpoint taint
propagation, and evaluates the RF rule family on the result.  See
docs/static-analysis.md for the design and the rule catalog.
"""

from repro.lint.flow.analysis import FlowAnalysis
from repro.lint.flow.callgraph import CallGraph, Node
from repro.lint.flow.rules import FLOW_RULES
from repro.lint.flow.summary import ModuleFlow, extract_module_flow

__all__ = [
    "CallGraph",
    "FLOW_RULES",
    "FlowAnalysis",
    "ModuleFlow",
    "Node",
    "extract_module_flow",
]
