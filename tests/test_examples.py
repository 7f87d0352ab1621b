"""Smoke tests: the shipped examples must run end to end."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "aborted as expected" in output
        assert "final price: 259.0" in output

    def test_bank_transfers(self):
        output = run_example("bank_transfers.py")
        assert "total balance: 10000" in output
        assert "total balance after recovery: 10000" in output

    def test_elasticity_failover(self):
        output = run_example("elasticity_failover.py")
        assert "data intact: 200 rows" in output
        assert "replication factor restored: True" in output

    def test_mixed_workload(self):
        output = run_example("mixed_workload.py")
        assert "analyst snapshot stable under concurrent OLTP" in output
        assert "-> True" in output
