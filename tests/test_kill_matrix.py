"""Guard for the kill matrix (tests/kill_matrix.py): every planted row
still applies to the code it patches, and tests/kill_matrix.json was
regenerated for the current rows and columns, with each killing
column's first killer.  A row whose ``old`` text moved or vanished fails
here instead of silently planting nothing, and a row that no column
kills fails too."""

import json

import pytest

from tests.kill_matrix import MUTANTS, OUTPUT, ROOT, columns


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_row_plants_exactly_once_at_head(row):
    row_id, file, old, _new, _why = row
    count = (ROOT / file).read_text(encoding="utf-8").count(old)
    assert count == 1, f"{row_id}: `old` occurs {count} times in {file}"


def test_json_holds_the_current_rows_and_columns():
    recorded = json.loads(OUTPUT.read_text(encoding="utf-8"))
    assert recorded["columns"] == columns(), \
        "columns changed: rerun PYTHONPATH=src python tests/kill_matrix.py"
    assert list(recorded["rows"]) == [row[0] for row in MUTANTS], \
        "rows changed: rerun PYTHONPATH=src python tests/kill_matrix.py"
    for row_id, killers in recorded["rows"].items():
        # column -> its first killer: a failing repro.san run or test id
        assert set(killers) <= set(recorded["columns"]), row_id
        assert all(isinstance(killer, str) and killer
                   for killer in killers.values()), row_id


def test_every_row_has_a_killer():
    # A planted bug that every checker misses is a gap in the tests,
    # not a row to keep quietly.
    recorded = json.loads(OUTPUT.read_text(encoding="utf-8"))
    assert [row_id for row_id, killers in recorded["rows"].items()
            if not killers] == []
