"""The CI matrix runs CPython 3.9; the development container has 3.11 only.

Parse every source file with the 3.9 grammar so that a ``match`` statement
or an ``except*`` cannot reach CI unnoticed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_src_parses_with_the_python_3_9_grammar():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 9))
        except SyntaxError as error:
            failures.append(f"{path.relative_to(SRC)}:{error.lineno}: {error.msg}")
    assert not failures, "\n".join(failures)
