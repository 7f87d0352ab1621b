"""Tests for the table layer: index maintenance, entry GC, batched gets."""

import pytest

from repro.api import Database
from repro.effects import run_direct
from repro.sql.keyenc import encode_key
from repro.sql.table import Table


@pytest.fixture
def env():
    db = Database(storage_nodes=2)
    session = db.session()
    session.execute(
        "CREATE TABLE acc (id INT PRIMARY KEY, owner TEXT, amount INT)"
    )
    session.execute("CREATE INDEX acc_owner ON acc (owner)")
    session.execute(
        "INSERT INTO acc VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'ann', 30)"
    )
    return db, session


def tree_entries(session, index_name):
    index = session.catalog.indexes[index_name]
    tree = session.indexes.tree(index)
    return run_direct(tree.all_entries(), session.dispatcher)


class TestIndexMaintenance:
    def test_old_index_entry_survives_key_update(self, env):
        """After a key-column update, the old entry must remain: older
        snapshots still reach the old version through it (Section 5.4)."""
        db, session = env
        session.execute("UPDATE acc SET owner = 'zoe' WHERE id = 1")
        owners = [entry[:-1] for entry in tree_entries(session, "acc_owner")]
        assert encode_key(("ann",)) in owners  # stale entry still there
        assert encode_key(("zoe",)) in owners

    def test_old_snapshot_reads_via_stale_entry(self, env):
        db, session = env
        reader = db.session()
        reader.execute("BEGIN")
        # Pin a snapshot, then change the key from another session.
        assert len(reader.query("SELECT id FROM acc WHERE owner = 'ann'")) == 2
        session.execute("UPDATE acc SET owner = 'zoe' WHERE id = 1")
        rows = reader.query("SELECT id FROM acc WHERE owner = 'ann' ORDER BY id")
        assert [r["id"] for r in rows] == [1, 3]
        reader.execute("COMMIT")

    def test_read_side_gc_removes_dead_entries(self, env):
        """Once no surviving version carries the key, a lookup garbage
        collects the entry (V_a \\ G = ∅)."""
        db, session = env
        session.execute("UPDATE acc SET owner = 'zoe' WHERE id = 1")
        # Old versions age out as transactions complete (lav advances).
        for _ in range(3):
            session.query("SELECT id FROM acc WHERE owner = 'ann'")
        owners = [entry[:-1] for entry in tree_entries(session, "acc_owner")]
        assert owners.count(encode_key(("ann",))) == 1  # only id 3 remains

    def test_deleted_row_entry_gc(self, env):
        db, session = env
        session.execute("DELETE FROM acc WHERE id = 2")
        for _ in range(3):
            session.query("SELECT id FROM acc WHERE owner = 'bob'")
        owners = [entry[:-1] for entry in tree_entries(session, "acc_owner")]
        assert encode_key(("bob",)) not in owners

    def test_lookup_skips_invisible_matches_without_error(self, env):
        db, session = env
        session.execute("UPDATE acc SET owner = 'zoe' WHERE id = 1")
        rows = session.query("SELECT id FROM acc WHERE owner = 'zoe'")
        assert [r["id"] for r in rows] == [1]


class TestGetMany:
    def test_get_many_returns_all(self, env):
        db, session = env
        session.execute("BEGIN")
        table = session.table("acc")
        result = run_direct(table.get_many([(1,), (2,), (9,)]), session.dispatcher)
        assert result[(1,)][1][1] == "ann"
        assert result[(2,)][1][1] == "bob"
        assert result[(9,)] is None
        session.execute("COMMIT")

    def test_get_many_sees_own_inserts(self, env):
        db, session = env
        session.execute("BEGIN")
        session.execute("INSERT INTO acc VALUES (50, 'new', 0)")
        table = session.table("acc")
        result = run_direct(table.get_many([(50,)]), session.dispatcher)
        assert result[(50,)][1][1] == "new"
        session.execute("ROLLBACK")

    def test_get_many_batches_requests(self, env):
        """All leaf fetches and record fetches are grouped (few Batch
        round trips instead of per-key traffic)."""
        db, session = env
        from repro import effects

        session.execute("BEGIN")
        table = session.table("acc")
        # warm the inner-node cache
        run_direct(table.get_many([(1,)]), session.dispatcher)
        generator = table.get_many([(1,), (2,), (3,)])
        requests = []
        result = None
        while True:
            try:
                request = generator.send(result)
            except StopIteration:
                break
            requests.append(request)
            result = session.dispatcher.execute(request)
        batch_count = sum(1 for r in requests if isinstance(r, effects.Batch))
        assert batch_count <= 2  # one leaf batch + one record batch
        session.execute("COMMIT")


class TestScans:
    def test_scan_merges_local_writes(self, env):
        db, session = env
        session.execute("BEGIN")
        session.execute("INSERT INTO acc VALUES (4, 'new', 1)")
        session.execute("DELETE FROM acc WHERE id = 1")
        session.execute("UPDATE acc SET amount = 99 WHERE id = 2")
        rows = session.query("SELECT id, amount FROM acc ORDER BY id")
        assert rows == [
            {"id": 2, "amount": 99},
            {"id": 3, "amount": 30},
            {"id": 4, "amount": 1},
        ]
        session.execute("ROLLBACK")

    def test_index_range_with_local_rows(self, env):
        db, session = env
        session.execute("BEGIN")
        session.execute("INSERT INTO acc VALUES (10, 'ann', 5)")
        rows = session.query(
            "SELECT id FROM acc WHERE owner = 'ann' ORDER BY id"
        )
        assert [r["id"] for r in rows] == [1, 3, 10]
        session.execute("ROLLBACK")


class TestRangeLiveEntries:
    """``index_range`` keeps an entry while its row carries the entry's
    key: it compares the row's values with the entry's value slots, and
    encoded where a NULL ``(0, False)`` or a bool takes part (``0 ==
    False``).  Each case leaves stale entries and checks the whole range
    against that rule spelled out with ``encode_key``."""

    @pytest.fixture
    def session(self):
        session = Database(storage_nodes=2).session()
        session.execute(
            "CREATE TABLE fl (id INT PRIMARY KEY, g INT NOT NULL, f BOOL, n INT)")
        session.execute("CREATE INDEX fl_gf ON fl (g, f)")
        session.execute("CREATE INDEX fl_gn ON fl (g, n)")
        session.execute("INSERT INTO fl VALUES (1, 1, NULL, NULL), "
                        "(2, 1, FALSE, 0), (3, 1, TRUE, 1), (4, 2, NULL, 5)")
        return session

    @staticmethod
    def check_range(session, index_name):
        """Compare the full range of ``index_name`` with the rule; returns
        the rids of the stale entries it skipped."""
        schema = session.catalog.table("fl")
        index = session.catalog.indexes[index_name]
        txn = run_direct(session.pn.begin(), session.dispatcher)
        table = Table(schema, txn, session.indexes)
        rows = dict(run_direct(table.scan(), session.dispatcher))
        live, stale = [], []
        for entry in tree_entries(session, index_name):
            rid = entry[-1]
            if encode_key(schema.index_key_of(index, rows[rid])) + (rid,) == entry:
                live.append((rid, rows[rid]))
            else:
                stale.append(rid)
        assert run_direct(table.index_range(index, None, None),
                          session.dispatcher) == live
        return stale

    def test_null_became_false_or_zero(self, session):
        session.execute("UPDATE fl SET f = FALSE, n = 0 WHERE id = 1")
        assert self.check_range(session, "fl_gf") == [1]
        assert self.check_range(session, "fl_gn") == [1]

    def test_value_became_null(self, session):
        session.execute("UPDATE fl SET f = NULL, n = NULL WHERE id = 2")
        assert self.check_range(session, "fl_gf") == [2]
        assert self.check_range(session, "fl_gn") == [2]

    def test_updated_primary_key(self, session):
        session.execute("UPDATE fl SET id = 10 WHERE id = 2")
        assert self.check_range(session, "fl_pk") == [2]


class TestUniqueness:
    def test_reinsert_after_delete(self, env):
        """Deleting a row frees its unique key for reuse -- requires the
        dead-entry GC in the unique pre-check."""
        db, session = env
        session.execute("DELETE FROM acc WHERE id = 1")
        session.execute("INSERT INTO acc VALUES (1, 'again', 7)")
        rows = session.query("SELECT owner FROM acc WHERE id = 1")
        assert rows == [{"owner": "again"}]

    def test_concurrent_unique_inserts_one_wins(self, env):
        db, session = env
        from repro.errors import DuplicateKey, TransactionAborted

        a = db.session()
        b = db.session()
        a.execute("BEGIN")
        b.execute("BEGIN")
        a.execute("INSERT INTO acc VALUES (77, 'a', 0)")
        b.execute("INSERT INTO acc VALUES (77, 'b', 0)")
        a.execute("COMMIT")
        with pytest.raises((DuplicateKey, TransactionAborted)):
            b.execute("COMMIT")
        rows = session.query("SELECT owner FROM acc WHERE id = 77")
        assert rows == [{"owner": "a"}]
