"""The CI matrix runs CPython 3.9; the development container has 3.11 only.

Parse every source, test and example file with the 3.9 grammar so that a
``match`` statement or an ``except*`` cannot reach CI unnoticed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def failures_under(*trees):
    """``path:line: message`` for each file under ``trees`` that the 3.9
    grammar rejects."""
    failures = []
    for tree in trees:
        files = sorted((ROOT / tree).rglob("*.py"))
        assert files, f"no Python files under {tree}/"
        for path in files:
            try:
                ast.parse(path.read_text(), filename=str(path),
                          feature_version=(3, 9))
            except SyntaxError as error:
                failures.append(
                    f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    return failures


def test_src_parses_with_the_python_3_9_grammar():
    failures = failures_under("src")
    assert not failures, "\n".join(failures)


def test_tests_and_examples_parse_with_the_python_3_9_grammar():
    failures = failures_under("tests", "examples")
    assert not failures, "\n".join(failures)
