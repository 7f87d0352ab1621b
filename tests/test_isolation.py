"""Tests for the three isolation modes.

Covers how a mode is chosen and handed over (config, connect, the commit
manager's ``start()``), the WSI/SSI commit validators in isolation, the
full commit pipeline under each mode (write skew eliminated under
WSI/SSI, present-but-reported under SI), the FOR UPDATE missing-key
materialization fix, the obs surface (mode gauge, validation counters,
the ``validate`` span phase), and the ``isolation`` bench experiment.
"""

import pytest

import repro
from repro import effects
from repro.api import DatabaseConfig
from repro.api.runner import DirectRunner, Router
from repro.core.commit_manager import CommitManager
from repro.core.isolation import (
    ISOLATION_MODES,
    CommitValidator,
    SSICommitValidator,
    make_validator,
)
from repro.core.processing_node import ProcessingNode
from repro.core.snapshot import SnapshotDescriptor
from repro.core.spaces import data_key
from repro.errors import InvalidState, TransactionAborted
from tests.conftest import interleave

K1 = data_key(1, 1)
K2 = data_key(1, 2)
K_MISSING = data_key(1, 777)


# ---------------------------------------------------------------------------
# choosing a mode: factories, config, connect
# ---------------------------------------------------------------------------


class TestFactories:
    def test_modes(self):
        assert ISOLATION_MODES == ("si", "wsi", "ssi")

    def test_tracking_flags(self, cluster):
        for mode in ISOLATION_MODES:
            manager, pn, runner, _router = isolation_env(cluster, mode)
            txn = runner.run(pn.begin())
            assert txn.isolation == manager.isolation_name == mode
            assert txn.tracks_reads == (mode != "si")

    def test_validators(self):
        assert make_validator("si") is None
        assert type(make_validator("wsi")) is CommitValidator
        assert type(make_validator("ssi")) is SSICommitValidator
        # Validators are stateful: every call builds a fresh one.
        assert make_validator("wsi") is not make_validator("wsi")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidState):
            make_validator("serializable")


class TestConfigAndConnect:
    def test_config_default_and_validation(self):
        assert DatabaseConfig().isolation == "si"
        assert DatabaseConfig(isolation="ssi").isolation == "ssi"
        with pytest.raises(InvalidState):
            DatabaseConfig(isolation="read-committed")
        with pytest.raises(InvalidState):
            repro.connect(isolation="read-committed")

    def test_connect_si_has_no_validator(self):
        with repro.connect() as db:
            assert db.validator is None
            assert db.commit_managers[0].isolation_name == "si"
            with db.session() as session:
                assert not session.begin().tracks_reads

    def test_connect_wsi_shares_one_validator(self):
        with repro.connect(isolation="wsi", commit_managers=2) as db:
            assert db.validator is not None
            for manager in db.commit_managers:
                assert manager.validator is db.validator
                assert manager.isolation_name == "wsi"
            with db.session() as session:
                txn = session.begin()
                assert txn.isolation == "wsi" and txn.tracks_reads


# ---------------------------------------------------------------------------
# the validators, unit-tested against synthetic windows
# ---------------------------------------------------------------------------


def snap(base):
    return SnapshotDescriptor(base=base)


class TestWsiValidator:
    def test_read_only_always_admitted(self):
        validator = CommitValidator()
        admitted = validator.validate_and_register(
            5, snap(0), read_keys=(K1, K2), write_keys=(), lav=0
        )
        assert admitted.ok
        # ... and read-only commits never enter the window under WSI.
        assert validator.is_empty()

    def test_concurrent_write_over_read_aborts(self):
        validator = CommitValidator()
        # tid 6 committed K1 while tid 5 (snapshot base 0) was running.
        assert validator.validate_and_register(
            6, snap(0), read_keys=(), write_keys=(K1,), lav=0
        ).ok
        verdict = validator.validate_and_register(
            5, snap(0), read_keys=(K1,), write_keys=(K2,), lav=0
        )
        assert not verdict.ok
        assert verdict.conflict_tid == 6

    def test_snapshot_containing_the_commit_is_not_concurrent(self):
        validator = CommitValidator()
        assert validator.validate_and_register(
            6, snap(0), read_keys=(), write_keys=(K1,), lav=0
        ).ok
        # Snapshot base 6 already sees tid 6's write: no conflict.
        assert validator.validate_and_register(
            9, snap(6), read_keys=(K1,), write_keys=(K2,), lav=0
        ).ok

    def test_disjoint_keys_admit(self):
        validator = CommitValidator()
        assert validator.validate_and_register(
            6, snap(0), read_keys=(), write_keys=(K1,), lav=0
        ).ok
        assert validator.validate_and_register(
            5, snap(0), read_keys=(K2,), write_keys=(K2,), lav=0
        ).ok
        assert validator.window_size() == 2

    def test_on_aborted_unregisters(self):
        validator = CommitValidator()
        validator.validate_and_register(
            6, snap(0), read_keys=(), write_keys=(K1,), lav=0
        )
        validator.on_aborted(6)  # LL/SC failed after validation
        assert validator.is_empty()
        # The retracted commit no longer aborts anyone.
        assert validator.validate_and_register(
            5, snap(0), read_keys=(K1,), write_keys=(K2,), lav=0
        ).ok

    def test_prune_by_lav(self):
        validator = CommitValidator()
        for tid in (3, 4, 9):
            validator.validate_and_register(
                tid, snap(0), read_keys=(), write_keys=(K1,), lav=0
            )
        # lav=5: tids 3 and 4 are inside every active snapshot now.
        validator.validate_and_register(
            12, snap(9), read_keys=(K2,), write_keys=(K2,), lav=5
        )
        assert validator.window_size() == 2  # 9 and 12 survive

    def test_mark_recovered_aborts_pre_crash_snapshots(self):
        validator = CommitValidator()
        validator.mark_recovered(10)
        stale = validator.validate_and_register(
            7, snap(4), read_keys=(K1,), write_keys=(K1,), lav=0
        )
        assert not stale.ok
        assert "fail-over" in stale.reason
        fresh = validator.validate_and_register(
            15, snap(12), read_keys=(K1,), write_keys=(K1,), lav=0
        )
        assert fresh.ok

    def test_mark_recovered_never_regresses(self):
        validator = CommitValidator()
        validator.mark_recovered(10)
        validator.mark_recovered(3)
        assert not validator.validate_and_register(
            7, snap(4), read_keys=(), write_keys=(K1,), lav=0
        ).ok


class TestSsiValidator:
    def test_write_skew_pair_aborts_second_doctor(self):
        validator = SSICommitValidator()
        # Doctor A read {K1,K2}, wrote K1; concurrent doctor B read
        # {K1,K2}, writes K2: B is a pivot (in-edge from A's read of K2,
        # out-edge to A's write of K1).
        assert validator.validate_and_register(
            6, snap(0), read_keys=(K1, K2), write_keys=(K1,), lav=0
        ).ok
        verdict = validator.validate_and_register(
            7, snap(0), read_keys=(K1, K2), write_keys=(K2,), lav=0
        )
        assert not verdict.ok
        assert "pivot" in verdict.reason

    def test_read_only_commits_are_registered(self):
        validator = SSICommitValidator()
        assert validator.validate_and_register(
            6, snap(0), read_keys=(K1,), write_keys=(), lav=0
        ).ok
        assert validator.window_size() == 1  # unlike WSI

    def test_closing_anothers_dangerous_structure_aborts(self):
        validator = SSICommitValidator()
        # tid 6 commits with an outgoing rw edge already (it read K1
        # which concurrent tid 5 wrote).
        assert validator.validate_and_register(
            5, snap(0), read_keys=(), write_keys=(K1,), lav=0
        ).ok
        assert validator.validate_and_register(
            6, snap(0), read_keys=(K1,), write_keys=(K2,), lav=0
        ).ok
        # tid 7 reads K2 (rw out to pivot 6) without any in-edge of its
        # own: it completes 5 -> 6 -> 7 and must abort.
        verdict = validator.validate_and_register(
            7, snap(0), read_keys=(K2,), write_keys=(data_key(1, 3),), lav=0
        )
        assert not verdict.ok
        assert "dangerous structure" in verdict.reason

    def test_single_edge_admits(self):
        validator = SSICommitValidator()
        assert validator.validate_and_register(
            5, snap(0), read_keys=(), write_keys=(K1,), lav=0
        ).ok
        # Out-edge only (read K1 written by 5), no in-edge: admitted.
        assert validator.validate_and_register(
            6, snap(0), read_keys=(K1,), write_keys=(K2,), lav=0
        ).ok


# ---------------------------------------------------------------------------
# the full pipeline: doctors racing through the dispatch layer
# ---------------------------------------------------------------------------


def isolation_env(cluster, mode):
    manager = CommitManager(
        0, cluster.execute, tid_range_size=32, validator=make_validator(mode)
    )
    # The PN is told nothing: start() hands the manager's mode over.
    pn = ProcessingNode(0)
    router = Router(cluster, manager, pn_id=0)
    return manager, pn, DirectRunner(router), router


def doctor(pn, write_key, outcomes):
    try:
        txn = yield from pn.begin()
        values = yield from txn.read_many([K1, K2])
        on_call = sum(p[0] for p in values.values() if p is not None)
        if on_call >= 2:
            yield from txn.update(write_key, (0,))
        yield from txn.commit()
        outcomes.append("committed")
    except TransactionAborted:
        outcomes.append("aborted")


@pytest.mark.parametrize("mode,expected", [
    ("si", ["committed", "committed"]),   # write skew: both admit
    ("wsi", ["committed", "aborted"]),    # validation kills one doctor
    ("ssi", ["committed", "aborted"]),
])
def test_write_skew_outcomes_by_mode(cluster, mode, expected):
    manager, pn, runner, router = isolation_env(cluster, mode)

    def seed():
        txn = yield from pn.begin()
        txn.insert(K1, (1,))
        txn.insert(K2, (1,))
        yield from txn.commit()

    runner.run(seed())
    seed_validations = manager.validations  # the seed writer validates too
    outcomes = []
    interleave(router, [doctor(pn, K1, outcomes), doctor(pn, K2, outcomes)])
    assert sorted(outcomes) == sorted(expected)
    if mode == "si":
        assert manager.validations == 0
    else:
        assert manager.validations - seed_validations == 2
        assert manager.validation_aborts == 1
        # The constraint survived: at most one doctor went off call.
        final = runner.run(pn.begin())
        values = runner.run(final.read_many([K1, K2]))
        assert sum(p[0] for p in values.values()) >= 1


def test_bare_processing_node_follows_its_commit_manager(cluster):
    """A ``ProcessingNode()`` built with no arguments runs whatever mode
    the commit manager serving it validates: it tracks reads under wsi
    and its writing commit is validated."""
    manager = CommitManager(0, cluster.execute, validator=make_validator("wsi"))
    pn = ProcessingNode(0)
    runner = DirectRunner(Router(cluster, manager, pn_id=0))

    def writer():
        txn = yield from pn.begin()
        assert txn.tracks_reads and txn.isolation == "wsi"
        txn.insert(K1, (1,))
        yield from txn.commit()

    runner.run(writer())
    assert manager.validations == 1


@pytest.mark.parametrize("mode", ["wsi", "ssi"])
def test_read_only_transactions_skip_validation(cluster, mode):
    manager, pn, runner, _router = isolation_env(cluster, mode)

    def seed():
        txn = yield from pn.begin()
        txn.insert(K1, ("x",))
        yield from txn.commit()

    def reader():
        txn = yield from pn.begin()
        value = yield from txn.read(K1)
        yield from txn.commit()
        return value

    runner.run(seed())
    validations_after_seed = manager.validations
    assert runner.run(reader()) == ("x",)
    assert manager.validations == validations_after_seed

    def scanner_mode_noted():
        txn = yield from pn.begin()
        assert txn.tracks_reads
        return txn.isolation

    assert runner.run(scanner_mode_noted()) == mode


def test_validation_abort_registers_nothing(cluster):
    """The aborted doctor must not itself abort later transactions."""
    manager, pn, runner, router = isolation_env(cluster, "wsi")

    def seed():
        txn = yield from pn.begin()
        txn.insert(K1, (1,))
        txn.insert(K2, (1,))
        yield from txn.commit()

    runner.run(seed())
    outcomes = []
    interleave(router, [doctor(pn, K1, outcomes), doctor(pn, K2, outcomes)])
    assert sorted(outcomes) == ["aborted", "committed"]

    def late_writer():
        txn = yield from pn.begin()
        values = yield from txn.read_many([K1, K2])
        total = sum(p[0] for p in values.values())
        yield from txn.update(K2, (total,))
        yield from txn.commit()

    runner.run(late_writer())  # no concurrent commits left: must admit
    assert manager.validation_aborts == 1


@pytest.mark.parametrize("mode", ["wsi", "ssi"])
def test_abort_after_validation_releases_the_validator(cluster, mode):
    """A writer that validated and then aborted (LL/SC or index
    maintenance failed) is un-registered when it reports the abort, so it
    cannot abort later committers as a ghost.  Kills the dropped
    ``validator.on_aborted`` in ``CommitManager.set_aborted``
    (``cm_validator_not_released`` in tests/kill_matrix.py)."""
    manager, pn, runner, router = isolation_env(cluster, mode)
    txn = runner.run(pn.begin())
    verdict = router.execute(
        effects.ValidateCommit(txn.tid, (K1,), (K1,), txn.snapshot))
    assert verdict.ok and not manager.validator.is_empty()
    runner.run(txn.abort())
    assert manager.validator.is_empty()


# ---------------------------------------------------------------------------
# the write_skew scenario under all three modes (the acceptance gate)
# ---------------------------------------------------------------------------


class TestWriteSkewScenario:
    def test_si_reports_the_anomaly(self):
        from repro.san.scenarios import write_skew

        log = write_skew(isolation="si")
        assert log.clean
        skew = [r for r in log.reports if r.code == "SSI-WRITE-SKEW"]
        assert len(skew) >= 1

    @pytest.mark.parametrize("mode", ["wsi", "ssi"])
    def test_validating_modes_eliminate_the_anomaly(self, mode):
        from repro.san.scenarios import write_skew

        log = write_skew(isolation=mode)
        # Zero anomalies: no violation (cycles escalate under these
        # modes) and no report either.
        assert log.clean
        assert [r for r in log.reports if r.code == "SSI-WRITE-SKEW"] == []


# ---------------------------------------------------------------------------
# read_for_update: the missing-key materialization fix
# ---------------------------------------------------------------------------


class TestReadForUpdateMissingKey:
    def test_missing_key_reads_none_and_stays_absent(self, cluster):
        _manager, pn, runner, _router = isolation_env(cluster, "si")

        def script():
            txn = yield from pn.begin()
            first = yield from txn.read_for_update(K_MISSING)
            again = yield from txn.read(K_MISSING)
            yield from txn.commit()
            return first, again

        assert runner.run(script()) == (None, None)

        def check():
            txn = yield from pn.begin()
            value = yield from txn.read(K_MISSING)
            yield from txn.commit()
            return value

        # The materialized tombstone commits as a no-op delete.
        assert runner.run(check()) is None

    def test_concurrent_for_update_readers_of_missing_key_conflict(
            self, cluster):
        """Regression: the read used to silently degrade to a plain read
        for absent keys, so both FOR UPDATE readers proceeded."""
        _manager, pn, runner, router = isolation_env(cluster, "si")
        outcomes = []

        def claimer(marker):
            try:
                txn = yield from pn.begin()
                existing = yield from txn.read_for_update(K_MISSING)
                if existing is None:
                    yield from txn.update(K_MISSING, (marker,))
                yield from txn.commit()
                outcomes.append(("committed", marker))
            except TransactionAborted:
                outcomes.append(("aborted", marker))

        interleave(router, [claimer("a"), claimer("b")])
        assert sorted(o for o, _ in outcomes) == ["aborted", "committed"]

        def check():
            txn = yield from pn.begin()
            value = yield from txn.read(K_MISSING)
            yield from txn.commit()
            return value

        winner = next(m for o, m in outcomes if o == "committed")
        assert runner.run(check()) == (winner,)

    def test_present_key_still_materializes_the_read(self, cluster):
        _manager, pn, runner, router = isolation_env(cluster, "si")

        def seed():
            txn = yield from pn.begin()
            txn.insert(K1, ("x",))
            yield from txn.commit()

        runner.run(seed())
        outcomes = []

        def toucher(tag):
            try:
                txn = yield from pn.begin()
                yield from txn.read_for_update(K1)
                yield from txn.commit()
                outcomes.append(("committed", tag))
            except TransactionAborted:
                outcomes.append(("aborted", tag))

        interleave(router, [toucher("a"), toucher("b")])
        assert sorted(o for o, _ in outcomes) == ["aborted", "committed"]


# ---------------------------------------------------------------------------
# the obs surface: mode gauge, validation counters, validate phase
# ---------------------------------------------------------------------------


class TestObsSurface:
    def test_mode_gauge_and_validation_counters(self, cluster):
        from repro.obs import MetricsRegistry
        from repro.obs.collect import collect_commit_managers

        manager, pn, runner, router = isolation_env(cluster, "wsi")

        def seed():
            txn = yield from pn.begin()
            txn.insert(K1, (1,))
            txn.insert(K2, (1,))
            yield from txn.commit()

        runner.run(seed())
        outcomes = []
        interleave(router, [doctor(pn, K1, outcomes),
                            doctor(pn, K2, outcomes)])

        registry = MetricsRegistry()
        collect_commit_managers(registry, [manager])
        gauges = registry.snapshot()["gauges"]

        def series(name, **labels):
            for key, value in gauges.items():
                if key.startswith(name) and all(
                        f"{k}={v}" in key for k, v in labels.items()):
                    return value
            raise AssertionError(f"no series {name} {labels} in {gauges}")

        assert series("repro_isolation_mode", mode="wsi") == 1.0
        assert series("repro_cm_activity", what="validations") == 3.0
        assert series("repro_cm_activity", what="validation_aborts") == 1.0

    def test_si_manager_reports_si_mode(self, cluster):
        from repro.obs import MetricsRegistry
        from repro.obs.collect import collect_commit_managers

        manager, _pn, _runner, _router = isolation_env(cluster, "si")
        registry = MetricsRegistry()
        collect_commit_managers(registry, [manager])
        gauges = registry.snapshot()["gauges"]
        assert any("repro_isolation_mode" in k and "mode=si" in k
                   for k in gauges)

    def test_validate_phase_appears_in_span_breakdown(self):
        with repro.connect(isolation="wsi", observability=True) as db:
            with db.session() as session:
                session.execute(
                    "CREATE TABLE duty (id INT PRIMARY KEY, on_call INT)"
                )
                session.execute("INSERT INTO duty VALUES (1, 1)")
                session.execute("UPDATE duty SET on_call = 0 WHERE id = 1")
            snapshot = db.obs.snapshot()
        assert any("phase=validate" in series
                   for series in snapshot["histograms"])

    def test_validate_phase_absent_under_si(self):
        with repro.connect(observability=True) as db:
            with db.session() as session:
                session.execute(
                    "CREATE TABLE duty (id INT PRIMARY KEY, on_call INT)"
                )
                session.execute("INSERT INTO duty VALUES (1, 1)")
            snapshot = db.obs.snapshot()
        assert snapshot["histograms"]
        assert not any("phase=validate" in series
                       for series in snapshot["histograms"])


# ---------------------------------------------------------------------------
# the bench suite
# ---------------------------------------------------------------------------


class TestIsolationBench:
    def test_point_shape_and_tradeoff(self):
        from repro.bench.isolation import run_isolation_point

        si = run_isolation_point("si", pairs=2, rounds=3)
        wsi = run_isolation_point("wsi", pairs=2, rounds=3)
        for row in (si, wsi):
            assert set(row) >= {
                "mode", "committed", "aborted", "abort_rate", "txns_per_s",
                "anomalies", "validations", "validation_aborts",
            }
        assert si["anomalies"] >= 1
        assert si["validations"] == 0
        assert wsi["anomalies"] == 0
        assert wsi["validation_aborts"] > 0
        assert wsi["committed"] < si["committed"]

    # Recorded at dbb7325 under CPython 3.11.7 (cross-version float
    # equality unverified).  The tpcc digests pin si only; this pins the
    # read-validating pipeline -- every effect the wsi/ssi commit path
    # yields moves simulated time, so it moves txns_per_s.
    @pytest.mark.parametrize("mode, pinned", [
        ("si", dict(committed=54, aborted=0, anomalies=3, validations=0,
                    validation_aborts=0, txns_per_s=192136.63049279488)),
        ("wsi", dict(committed=30, aborted=24, anomalies=0, validations=49,
                     validation_aborts=24, txns_per_s=101452.46106761809)),
        ("ssi", dict(committed=30, aborted=24, anomalies=0, validations=49,
                     validation_aborts=24, txns_per_s=101452.46106761809)),
    ])
    def test_pinned_point(self, mode, pinned):
        from repro.bench.isolation import run_isolation_point

        row = run_isolation_point(mode)
        assert {name: row[name] for name in pinned} == pinned
        assert row["sanitizer_clean"] is True

    def test_cli_suite_prints_its_table(self, capsys):
        from repro.bench.__main__ import main

        assert main(["isolation"]) == 0
        out = capsys.readouterr().out
        assert "isolation protocol trade-off" in out
        assert "[isolation: shape holds]" in out
        for mode in ("si", "wsi", "ssi"):
            assert mode in out
