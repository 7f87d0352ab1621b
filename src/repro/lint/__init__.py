"""repro-lint: AST-based invariant checker for this codebase.

The reproduction rests on conventions no runtime check can fully guard:
protocol code must *yield* its effects (RL001/RL002), scheduling-adjacent
code must not iterate sets (RL005), effect and kernel classes must keep
the ``__slots__`` hot-path contract (RL006), and mutable defaults leak
state between runs (RL007).  The interprocedural RF rules close those
contracts over the project call graph: simulated-time code must never
reach the wall clock, nor any code the process-global RNG (RF001), and
the sanitizers must never reach protocol-mutating or obs code (RF004).
The RA rules check what may change across a coroutine's yield points.

``repro-lint src`` enforces all of it statically, in one run mode.  See
``docs/static-analysis.md`` for the full rule catalog and the inline
suppression syntax.
"""

from repro.lint.engine import (
    ALL_RULES,
    RULES_BY_CODE,
    Finding,
    LintResult,
    SourceModule,
    lint_paths,
    lint_source,
    lint_sources,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "RULES_BY_CODE",
    "SourceModule",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
