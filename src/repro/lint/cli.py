"""Command-line interface for repro-lint.

Usage::

    repro-lint [PATHS...]              lint (default: src)
    repro-lint --flow src              + interprocedural RF rules
    repro-lint --flow --atomic src     + yield-point RA rules
    repro-lint --json src              machine-readable findings
    repro-lint --explain RF001         print one rule's documentation
    repro-lint --list-rules            one line per rule
    repro-lint --flow --dump-callgraph src   call graph as JSON

Exit codes: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from typing import List, Optional

from repro.lint.atomic import ATOMIC_RULES_BY_CODE
from repro.lint.engine import build_index, lint_sources, load_sources
from repro.lint.flow.atomic import ANALYZER_VERSION
from repro.lint.flow.rules import FLOW_RULES_BY_CODE
from repro.lint.rules import ALL_RULES, RULES_BY_CODE

#: JSON output schema tag.  /1 had no "schema"/"analyzer"/"family"
#: fields; /2 added them; /3 drops "baselined" (baselines are gone).
JSON_SCHEMA = "repro-lint-findings/3"

_ALL_RULES_BY_CODE = {**RULES_BY_CODE, **FLOW_RULES_BY_CODE,
                      **ATOMIC_RULES_BY_CODE}


def _family(code: str) -> str:
    """Rule family of a finding code: RL, RF, or RA."""
    return code[:2] if code[:2] in ("RL", "RF", "RA") else "RL"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST invariant checker for the repro codebase: "
                    "effect-coroutine hygiene, simulation determinism, "
                    "and hot-path contracts.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--flow", action="store_true",
                        help="run the interprocedural RF rules (project "
                             "call graph + taint propagation)")
    parser.add_argument("--atomic", action="store_true",
                        help="run the yield-point interleaving and "
                             "typestate RA rules (implies --flow)")
    parser.add_argument("--dump-callgraph", action="store_true",
                        help="with --flow: print the resolved call graph "
                             "as JSON and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print the documentation for one rule "
                             "(e.g. --explain RF001) and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="list all rules and exit")
    return parser


def _explain(code: str) -> int:
    rule = _ALL_RULES_BY_CODE.get(code.upper())
    if rule is None:
        known = ", ".join(sorted(_ALL_RULES_BY_CODE))
        print(f"repro-lint: unknown rule {code!r} (known: {known})",
              file=sys.stderr)
        return 2
    print(f"{rule.code}: {rule.title}")
    print()
    print(textwrap.dedent(rule.explain).rstrip())
    return 0


def _list_rules() -> int:
    for rule in ALL_RULES:
        print(f"{rule.code}  {rule.title}")
    for rule in FLOW_RULES_BY_CODE.values():
        print(f"{rule.code}  {rule.title}  [--flow]")
    for rule in ATOMIC_RULES_BY_CODE.values():
        print(f"{rule.code}  {rule.title}  [--atomic]")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.atomic:
        # The RA rules are built on the flow call graph.
        args.flow = True

    if args.explain is not None:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    if args.dump_callgraph and not args.flow:
        print("repro-lint: --dump-callgraph requires --flow",
              file=sys.stderr)
        return 2

    try:
        sources = load_sources(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such file or directory: {exc}",
              file=sys.stderr)
        return 2

    if args.dump_callgraph:
        graph = build_index(sources, flow=True).flow.graph
        print(json.dumps(graph.to_dict(), indent=2, sort_keys=True))
        return 0

    result = lint_sources(sources, flow=args.flow, atomic=args.atomic)

    if args.as_json:
        findings = []
        for finding in result.findings:
            entry = finding.to_dict()
            entry["family"] = _family(finding.rule)
            findings.append(entry)
        payload = {
            "schema": JSON_SCHEMA,
            "analyzer": ANALYZER_VERSION,
            "findings": findings,
            "files_checked": result.files_checked,
            "suppressed": result.suppressed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return result.exit_code

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
