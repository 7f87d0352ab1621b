"""repro-lint: AST-based invariant checker for this codebase.

The reproduction rests on conventions no runtime check can fully guard:
protocol code must *yield* its effects (RL001/RL002), simulated-time
code must never read the wall clock (RL003) or the process-global RNG
(RL004), scheduling-adjacent code must not iterate sets (RL005), effect
and kernel classes must keep the ``__slots__`` hot-path contract
(RL006), and mutable defaults leak state between runs (RL007).

``repro-lint src`` enforces all of it statically; ``--flow`` adds the
interprocedural RF family and ``--atomic`` the yield-point interleaving
and typestate RA family.  See ``docs/static-analysis.md`` for the full
rule catalog and the inline suppression syntax.
"""

from repro.lint.atomic import ATOMIC_RULES, ATOMIC_RULES_BY_CODE
from repro.lint.engine import (
    Finding,
    LintResult,
    SourceModule,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.rules import ALL_RULES, RULES_BY_CODE

__all__ = [
    "ALL_RULES",
    "ATOMIC_RULES",
    "ATOMIC_RULES_BY_CODE",
    "Finding",
    "LintResult",
    "RULES_BY_CODE",
    "SourceModule",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
