"""Guard for the kill matrix (tests/kill_matrix.py): every planted row
still applies to the code it patches, and tests/kill_matrix.json was
regenerated for the current rows and columns.  A row whose ``old`` text
moved or vanished fails here instead of silently planting nothing."""

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
        "rule set changed: rerun PYTHONPATH=src python tests/kill_matrix.py"
    assert list(recorded["rows"]) == [row[0] for row in MUTANTS], \
        "rows changed: rerun PYTHONPATH=src python tests/kill_matrix.py"
    for killers in recorded["rows"].values():
        assert set(killers) <= set(recorded["columns"])
