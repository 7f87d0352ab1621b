"""repro-flow: the interprocedural call graph behind RF001.

This package extracts a serializable per-module summary of every
function (calls, receiver bindings, spawned generators, determinism
facts), links the summaries into a project-wide call graph, closes it
forward from the simulation entry points, and evaluates RF001 on the
result.  See docs/static-analysis.md for the design and the rule
catalog.
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
