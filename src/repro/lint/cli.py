"""Command-line interface for repro-lint.

Usage::

    repro-lint [PATHS...]              lint (default: src)
    repro-lint --explain RF001         print one rule's documentation
    repro-lint --list-rules            one line per rule

Every run builds the symbol index and runs every rule.

Exit codes: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import List, Optional

from repro.lint.engine import (
    ALL_RULES,
    RULES_BY_CODE,
    lint_sources,
    load_sources,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST invariant checker for the repro codebase: "
                    "effect-coroutine hygiene, simulation determinism, "
                    "hot-path contracts and sanitizer isolation.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print the documentation for one rule "
                             "(e.g. --explain RF001) and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="list all rules and exit")
    return parser


def _explain(code: str) -> int:
    rule = RULES_BY_CODE.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(RULES_BY_CODE))
        print(f"repro-lint: unknown rule {code!r} (known: {known})",
              file=sys.stderr)
        return 2
    print(f"{rule.code}: {rule.title}")
    print()
    print(textwrap.dedent(rule.explain).rstrip())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.explain is not None:
        return _explain(args.explain)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.title}")
        return 0

    try:
        sources = load_sources(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such file or directory: {exc}",
              file=sys.stderr)
        return 2
    result = lint_sources(sources)

    for finding in result.findings:
        print(f"{finding.path}:{finding.line}:{finding.col + 1}: "
              f"{finding.rule} {finding.message}")
        if finding.line_text.strip():
            print(f"    {finding.line_text.strip()}")
    suffix = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    if result.findings:
        print(f"repro-lint: {len(result.findings)} finding(s) in "
              f"{result.files_checked} file(s){suffix}")
        print("repro-lint: run `repro-lint --explain <RULE>` for the "
              "rationale and fix for any rule")
    else:
        print(f"repro-lint: clean -- {result.files_checked} file(s)"
              f"{suffix}")
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
