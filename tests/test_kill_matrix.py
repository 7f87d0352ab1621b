"""Guard for the kill matrix (tests/kill_matrix.py): every planted row
still applies to the code it patches, and tests/kill_matrix.json was
regenerated for the current rows and columns.  A row whose ``old`` text
moved or vanished fails here instead of silently planting nothing, and
a rule whose column kills no row fails too."""

import json

import pytest

from tests.kill_matrix import MUTANTS, OUTPUT, ROOT, columns, rule_codes


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


def test_every_rule_column_kills_some_row():
    # A rule earns its column with a planted bug it catches; one that
    # kills nothing has no evidence behind it.
    recorded = json.loads(OUTPUT.read_text(encoding="utf-8"))
    killing = {code for killers in recorded["rows"].values()
               for code in killers}
    assert [code for code in rule_codes() if code not in killing] == []
