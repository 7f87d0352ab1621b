"""Tests for storage-side operator push-down (Section 5.2)."""

import pytest

from repro import effects
from repro.api import Database
from repro.core.record import TOMBSTONE, Version, VersionedRecord
from repro.core.snapshot import SnapshotDescriptor
from repro.errors import InvalidState
from repro.store.pushdown import ScanFilter


class TestScanFilter:
    def test_matches_conjunction(self):
        scan_filter = ScanFilter([(0, ">=", 10), (1, "=", "a")])
        assert scan_filter.matches((10, "a"))
        assert not scan_filter.matches((9, "a"))
        assert not scan_filter.matches((10, "b"))

    def test_null_never_matches(self):
        scan_filter = ScanFilter([(0, "=", None)])
        assert not scan_filter.matches((None,))
        assert not scan_filter.matches((1,))

    def test_empty_filter_matches_everything(self):
        assert ScanFilter([]).matches((1, 2, 3))

    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidState):
            ScanFilter([(0, "~", 1)])

    def test_all_operators(self):
        row = (5,)
        for op, expected in (("=", False), ("!=", True), ("<", True),
                             ("<=", True), (">", False), (">=", False)):
            assert ScanFilter([(0, op, 7)]).matches(row) is expected


class TestStoragePushdown:
    def seed(self, cluster):
        snapshot = SnapshotDescriptor(10, 0)
        for i in range(20):
            record = VersionedRecord.initial(1, (i, f"name-{i}", i * 10))
            cluster.execute(effects.Put("data", (1, i), record))
        # one record with a newer (invisible) version and one deleted
        visible = VersionedRecord(
            [Version(1, (100, "old", 0)), Version(99, (100, "new", 0))]
        )
        cluster.execute(effects.Put("data", (1, 100), visible))
        deleted = VersionedRecord(
            [Version(1, (200, "gone", 0)), Version(2, TOMBSTONE)]
        )
        cluster.execute(effects.Put("data", (1, 200), deleted))
        return snapshot

    def test_snapshot_scan_resolves_versions(self, cluster):
        snapshot = self.seed(cluster)
        rows = cluster.execute(
            effects.Scan("data", (1,), (2,), snapshot=snapshot)
        )
        payloads = {key[1]: value for key, value, _v in rows}
        assert payloads[100][1] == "old"     # invisible version skipped
        assert 200 not in payloads           # visible tombstone skipped
        assert len(payloads) == 21

    def test_filter_applied_at_node(self, cluster):
        snapshot = self.seed(cluster)
        rows = cluster.execute(effects.Scan(
            "data", (1,), (2,), snapshot=snapshot,
            scan_filter=ScanFilter([(2, ">=", 150)]),
        ))
        values = sorted(value[0] for _k, value, _v in rows)
        assert values == [15, 16, 17, 18, 19]

    def test_raw_scan_unchanged(self, cluster):
        self.seed(cluster)
        rows = cluster.execute(effects.Scan("data", (1,), (2,)))
        assert all(isinstance(value, VersionedRecord) for _k, value, _v in rows)


class TestSqlIntegration:
    @pytest.fixture
    def session(self):
        db = Database(storage_nodes=2)
        session = db.session()
        session.execute(
            "CREATE TABLE m (id INT PRIMARY KEY, grp TEXT, v INT)"
        )
        session.execute(
            "INSERT INTO m VALUES " + ", ".join(
                f"({i}, '{'even' if i % 2 == 0 else 'odd'}', {i})"
                for i in range(50)
            )
        )
        return session

    def test_full_scan_query_uses_pushdown(self, session):
        # grp is unindexed -> scan path with a pushed filter.
        rows = session.query(
            "SELECT COUNT(*) AS n FROM m WHERE grp = 'even' AND v >= 10"
        )
        assert rows == [{"n": 20}]

    def test_pushdown_respects_transaction_writes(self, session):
        session.execute("BEGIN")
        session.execute("INSERT INTO m VALUES (100, 'even', 100)")
        session.execute("UPDATE m SET grp = 'odd' WHERE id = 0")
        rows = session.query("SELECT COUNT(*) AS n FROM m WHERE grp = 'even'")
        assert rows == [{"n": 25}]  # +1 insert, -1 update
        session.execute("ROLLBACK")

    def test_pushdown_snapshot_stability(self, session):
        from repro.core.processing_node import ProcessingNode
        from repro.dispatch import Dispatcher
        from repro.sql.session import Session

        session.execute("BEGIN")
        before = session.query(
            "SELECT COUNT(*) AS n FROM m WHERE grp = 'odd'"
        )[0]["n"]
        # another session deletes odd rows
        own = session.dispatcher
        other = Session(ProcessingNode(55),
                        Dispatcher(own.cluster, own.commit_manager, 55))
        other.execute("DELETE FROM m WHERE grp = 'odd'")
        after = session.query(
            "SELECT COUNT(*) AS n FROM m WHERE grp = 'odd'"
        )[0]["n"]
        assert after == before  # scan sees the pinned snapshot
        session.execute("COMMIT")
        assert session.query(
            "SELECT COUNT(*) AS n FROM m WHERE grp = 'odd'"
        )[0]["n"] == 0

    def test_pushdown_reduces_shipped_bytes_in_simulation(self):
        """End-to-end: a selective analytic scan ships far fewer bytes
        with storage-side filtering."""
        from repro.workloads.simulated import SimulatedTell, TellConfig
        from repro.workloads.tpcc.params import TpccScale

        config = TellConfig(processing_nodes=1, storage_nodes=3,
                            scale=TpccScale.tiny(2))
        deployment = SimulatedTell(config)
        deployment.load()
        pn, pool, cm_index, indexes = deployment._make_pn(0)
        from repro.sql.table import Table

        def analytic(pushdown):
            def script():
                txn = yield from pn.begin()
                table = Table(
                    deployment.catalog.table("orderline"), txn, indexes
                )
                scan_filter = (
                    table.make_filter([("ol_amount", ">=", 9000.0)])
                    if pushdown else None
                )
                rows = yield from table.scan(scan_filter)
                yield from txn.commit()
                return rows

            before = deployment.fabric.stats.bytes_sent
            process = deployment.sim.spawn(
                deployment._drive(pool, cm_index, script())
            )
            rows = deployment.sim.run_until_complete(process)
            return rows, deployment.fabric.stats.bytes_sent - before

        filtered_rows, _ = analytic(True)
        full_rows, _ = analytic(False)
        # Same predicate evaluated client-side gives the same matches.
        amount_pos = deployment.catalog.table("orderline").position("ol_amount")
        client_side = [r for r in full_rows if r[1][amount_pos] >= 9000.0]
        assert sorted(r[0] for r in filtered_rows) == sorted(
            r[0] for r in client_side
        )
        assert len(filtered_rows) < len(full_rows)