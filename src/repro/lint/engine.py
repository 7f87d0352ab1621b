"""repro-lint engine: discovery, suppression, reporting.

Flow: collect :class:`SourceModule` objects (from paths or in-memory
strings), summarize each into the cross-module :class:`ProjectIndex`,
run every rule over every module, then filter findings through inline
suppressions.

Inline suppressions::

    time.sleep(1)  # repro-lint: ignore[RF001] calibration outside the sim

    # repro-lint: ignore[RL001, RL002]
    effects.Get(space, key)

A comment applies to its own line, or -- when it is a standalone comment
line -- to the next line.  ``# repro-lint: skip-file`` anywhere skips the
whole file (generated code).  Suppressions must name rule codes
explicitly; there is no blanket ignore.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.index import ModuleSummary, ProjectIndex
from repro.lint.rules import ALL_RULES, Rule

_IGNORE_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Z0-9,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}


class Finding:
    """One lint finding."""

    __slots__ = ("rule", "path", "line", "col", "message", "line_text")

    def __init__(self, rule: str, path: str, line: int, col: int,
                 message: str, line_text: str) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.line_text = line_text

    def __repr__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class SourceModule:
    """A parsed source file plus its suppression table.

    ``summary`` is a pure function of this one module's text, computed on
    first use and kept: re-linting a project with one module replaced (a
    planted mutation) re-summarizes that module only.
    """

    def __init__(self, path: str, module: str, text: str) -> None:
        self.path = path
        self.module = module
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        self.skip_file = False
        self.line_ignores: Dict[int, Set[str]] = {}
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.syntax_error = exc
            return
        self._scan_comments()

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            comments = [
                (tok.start[0], tok.start[1], tok.string)
                for tok in tokens if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:
            comments = [
                (i + 1, line.index("#"), line[line.index("#"):])
                for i, line in enumerate(self.lines) if "#" in line
            ]
        for lineno, col, comment in comments:
            if _SKIP_FILE_RE.search(comment):
                self.skip_file = True
            match = _IGNORE_RE.search(comment)
            if not match:
                continue
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            target = lineno
            line = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
            if line[:col].strip() == "":
                # Standalone comment line: applies to the next line too.
                self.line_ignores.setdefault(lineno + 1, set()).update(codes)
            self.line_ignores.setdefault(target, set()).update(codes)

    @cached_property
    def summary(self) -> ModuleSummary:
        """Imports and definitions; needs a parsed tree."""
        assert self.tree is not None
        return ModuleSummary(self.module, self.tree)

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.line_ignores.get(finding.line, ())

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class LintResult:
    """Outcome of one lint run."""

    def __init__(self, findings: List[Finding], suppressed: int,
                 files_checked: int) -> None:
        self.findings = findings
        self.suppressed = suppressed
        self.files_checked = files_checked

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


# -- discovery -------------------------------------------------------------


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` in first-seen order; a file reached
    through overlapping arguments (``DIR DIR/x.py``) is listed once."""
    files: Dict[str, str] = {}  # absolute path -> path as first reached
    for path in paths:
        if os.path.isfile(path):
            files.setdefault(os.path.abspath(path), path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found = os.path.join(root, name)
                        files.setdefault(os.path.abspath(found), found)
        else:
            raise FileNotFoundError(path)
    return list(files.values())


def module_name_for(path: str) -> str:
    """Best-effort dotted module name: anchored at the last path segment
    named ``repro`` (or after one named ``src``), else the file stem."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    anchor = None
    for i, part in enumerate(parts):
        if part == "repro":
            anchor = i
        elif part == "src" and i + 1 < len(parts):
            anchor = i + 1
    dotted = parts[anchor:] if anchor is not None else parts[-1:]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or "unknown"


def load_sources(paths: Sequence[str],
                 relative_to: Optional[str] = None) -> List[SourceModule]:
    sources = []
    base = relative_to or os.getcwd()
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            display = os.path.relpath(filename, base)
        except ValueError:
            display = filename
        if display.startswith(".." + os.sep):
            display = filename
        sources.append(SourceModule(display, module_name_for(filename), text))
    return sources


# -- running ---------------------------------------------------------------


def run_rules(sources: Sequence[SourceModule],
              rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Raw findings of ``rules`` (default: all), before inline
    suppressions are applied."""
    active_rules = ALL_RULES if rules is None else rules
    index = ProjectIndex({
        source.module: source.summary for source in sources
        if source.tree is not None and not source.skip_file
    })

    findings: List[Finding] = []
    for source in sources:
        if source.skip_file:
            continue
        if source.syntax_error is not None:
            exc = source.syntax_error
            findings.append(Finding(
                "RL000", source.path, exc.lineno or 1, (exc.offset or 1) - 1,
                f"syntax error: {exc.msg}", source.line_text(exc.lineno or 1),
            ))
            continue
        summary = index.summaries[source.module]
        for rule in active_rules:
            for node, message in rule.check(summary, source.tree, index):
                lineno = getattr(node, "lineno", 1)
                findings.append(Finding(
                    rule.code, source.path, lineno,
                    getattr(node, "col_offset", 0), message,
                    source.line_text(lineno),
                ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_sources(sources: Sequence[SourceModule],
                 rules: Optional[Sequence[Rule]] = None) -> LintResult:
    raw = run_rules(sources, rules)
    by_path = {source.path: source for source in sources}
    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding):
            suppressed += 1
            continue
        kept.append(finding)
    checked = sum(1 for s in sources if not s.skip_file)
    return LintResult(kept, suppressed, checked)


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence[Rule]] = None,
               relative_to: Optional[str] = None) -> LintResult:
    return lint_sources(load_sources(paths, relative_to), rules)


def lint_source(text: str, module: str = "repro.example",
                path: str = "<memory>",
                rules: Optional[Sequence[Rule]] = None,
                extra_sources: Iterable[SourceModule] = ()) -> List[Finding]:
    """Lint one in-memory snippet (test/fixture entry point).

    ``module`` controls package-scoped rules (a wall clock is an RF001
    finding only in a ``repro.*`` module outside ``repro.bench``);
    ``extra_sources`` joins additional modules into the same project
    index (cross-module resolution tests).
    """
    sources = [SourceModule(path, module, text)] + list(extra_sources)
    return lint_sources(sources, rules=rules).findings
