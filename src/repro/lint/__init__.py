"""repro-lint: AST-based invariant checker for this codebase.

The reproduction rests on conventions no runtime check can fully guard:
protocol code must *yield* its effects (RL001/RL002), scheduling-adjacent
code must not iterate sets (RL005), effect and kernel classes must keep
the ``__slots__`` hot-path contract (RL006), and mutable defaults leak
state between runs (RL007).  RF001 closes determinism over the project
call graph: simulated-time code must never reach the wall clock, nor any
code the process-global RNG.  Two contracts are runtime tests instead:
every concrete request declares a dispatch kind
(``tests/test_dispatch.py::test_every_concrete_request_declares_a_kind``)
and the sanitizers leave the run they watch unchanged
(``tests/test_sanitizers.py::test_sanitizers_leave_the_run_unchanged``).

``repro-lint src`` enforces the rest statically, in one run mode.  See
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
