"""Tests for the buffering strategies of Section 5.5."""

import pytest

from repro import effects
from repro.core.buffers import (
    SharedBufferVersionSync,
    SharedRecordBuffer,
    TransactionBuffer,
    make_strategy,
)
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.record import VersionedRecord
from repro.core.snapshot import SnapshotDescriptor
from repro.core.spaces import DATA_SPACE, VSET_SPACE, data_key
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.store.cluster import StorageCluster

K1 = data_key(1, 1)
K2 = data_key(1, 2)
K11 = data_key(1, 11)


def run(dispatcher, generator):
    return effects.run_direct(generator, dispatcher)


@pytest.fixture
def store_env():
    cluster = StorageCluster(n_nodes=2)
    dispatcher = Dispatcher(cluster)
    cluster.execute(effects.Put(DATA_SPACE, K1, VersionedRecord.initial(0, ("a",))))
    cluster.execute(effects.Put(DATA_SPACE, K2, VersionedRecord.initial(0, ("b",))))
    return cluster, dispatcher


class TestMakeStrategy:
    def test_names(self):
        assert make_strategy("tb").name == "tb"
        assert make_strategy("sb").name == "sb"
        assert make_strategy("sbvs10").unit_size == 10
        assert make_strategy("sbvs1000").unit_size == 1000

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("nope")


class TestTransactionBuffer:
    def test_always_fetches(self, store_env):
        _cluster, dispatcher = store_env
        strategy = TransactionBuffer()
        snapshot = SnapshotDescriptor(10, 0)
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        assert strategy.stats.fetches == 2
        assert strategy.stats.hits == 0


class TestSharedRecordBuffer:
    def test_hit_when_snapshot_subset(self, store_env):
        _cluster, dispatcher = store_env
        strategy = SharedRecordBuffer()
        strategy.observe_snapshot(SnapshotDescriptor(10, 0))
        first = run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1]))
        # A transaction with an *older* snapshot can reuse the entry.
        second = run(dispatcher, strategy.read_records(SnapshotDescriptor(3, 0), [K1]))
        assert strategy.stats.fetches == 1
        assert strategy.stats.hits == 1
        assert first[0][0] is second[0][0]

    def test_miss_when_transaction_too_recent(self, store_env):
        _cluster, dispatcher = store_env
        strategy = SharedRecordBuffer()
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1]))
        # A newer transaction: V_tx ⊄ B -> re-fetch.
        strategy.observe_snapshot(SnapshotDescriptor(9, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(9, 0), [K1]))
        assert strategy.stats.fetches == 2

    def test_remote_update_visible_after_refetch(self, store_env):
        """A record changed by a remote PN is re-fetched by newer
        transactions -- the consistency condition of Section 5.5.2."""
        cluster, dispatcher = store_env
        strategy = SharedRecordBuffer()
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1]))
        # remote PN writes version 7
        record, version = cluster.execute(effects.Get(DATA_SPACE, K1))
        from repro.core.record import Version

        cluster.execute(
            effects.Put(DATA_SPACE, K1, record.with_version(Version(7, ("new",))))
        )
        strategy.observe_snapshot(SnapshotDescriptor(8, 0))
        result = run(dispatcher, strategy.read_records(SnapshotDescriptor(8, 0), [K1]))
        assert result[0][0].get(7).payload == ("new",)

    def test_write_through_on_apply(self, store_env):
        _cluster, dispatcher = store_env
        strategy = SharedRecordBuffer()
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        record = VersionedRecord.initial(6, ("w",))
        run(dispatcher, strategy.note_applied(6, K1, record, 2))
        snapshot = SnapshotDescriptor(4, 0).with_completed(6)
        result = run(dispatcher, strategy.read_records(snapshot, [K1]))
        assert result == ([record], [2])
        assert strategy.stats.fetches == 0

    def test_lru_eviction(self, store_env):
        _cluster, dispatcher = store_env
        strategy = SharedRecordBuffer(capacity=1)
        snapshot = SnapshotDescriptor(5, 0)
        strategy.observe_snapshot(snapshot)
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        run(dispatcher, strategy.read_records(snapshot, [K2]))  # evicts K1
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        assert strategy.stats.fetches == 3

    def test_invalidate(self, store_env):
        _cluster, dispatcher = store_env
        strategy = SharedRecordBuffer()
        snapshot = SnapshotDescriptor(5, 0)
        strategy.observe_snapshot(snapshot)
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        strategy.invalidate(K1)
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        assert strategy.stats.fetches == 2


class TestSharedBufferVersionSync:
    def test_vset_check_validates_without_refetch(self, store_env):
        """Condition 2a: equal stored version set -> record not
        re-transferred (the bandwidth saving of Section 5.5.3)."""
        _cluster, dispatcher = store_env
        strategy = SharedBufferVersionSync(unit_size=10)
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1]))
        strategy.observe_snapshot(SnapshotDescriptor(9, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(9, 0), [K1]))
        assert strategy.stats.fetches == 1       # record moved once
        assert strategy.stats.vset_checks >= 1   # cheap check instead
        assert strategy.stats.vset_valid == 1

    def test_update_invalidates_other_pn_buffers(self, store_env):
        cluster, dispatcher = store_env
        pn_a = SharedBufferVersionSync(unit_size=10)
        pn_b = SharedBufferVersionSync(unit_size=10)
        for strategy in (pn_a, pn_b):
            strategy.observe_snapshot(SnapshotDescriptor(5, 0))
            run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1]))
        # PN A applies an update (touching the vset cell).
        new_record = VersionedRecord.initial(7, ("new",))
        cluster.execute(effects.Put(DATA_SPACE, K1, new_record))
        run(dispatcher, pn_a.note_applied(7, K1, new_record, 2))
        # PN B with a newer snapshot detects B' != B and re-fetches.
        pn_b.observe_snapshot(SnapshotDescriptor(9, 0))
        result = run(dispatcher, pn_b.read_records(SnapshotDescriptor(9, 0), [K1]))
        assert result[0][0].get(7) is not None
        assert pn_b.stats.fetches == 2

    def test_cache_unit_groups_invalidation(self, store_env):
        """Updating one record of a cache unit invalidates the whole
        unit locally (records sharing the version-set cell)."""
        cluster, dispatcher = store_env
        # K1 (rid 1) and K2 (rid 2) share unit (1, 0) at unit_size 10.
        strategy = SharedBufferVersionSync(unit_size=10)
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1, K2]))
        new_record = VersionedRecord.initial(7, ("upd",))
        run(dispatcher, strategy.note_applied(7, K1, new_record, 2))
        # K2's entry was dropped locally.
        assert K2 not in strategy._records
        assert K1 in strategy._records

    def test_unit_size_separates_records(self, store_env):
        cluster, dispatcher = store_env
        cluster.execute(
            effects.Put(DATA_SPACE, K11, VersionedRecord.initial(0, ("c",)))
        )
        strategy = SharedBufferVersionSync(unit_size=10)
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        # rid 1 -> unit 0; rid 11 -> unit 1.
        run(dispatcher, strategy.read_records(SnapshotDescriptor(5, 0), [K1, K11]))
        run(dispatcher, strategy.note_applied(7, K1, VersionedRecord.initial(7, ("u",)), 2))
        assert K11 in strategy._records  # different unit: untouched

    def test_eviction_leaves_no_unit_membership(self, store_env):
        """An evicted key leaves its unit's member set, and a unit whose
        last buffered key went has no set at all."""
        cluster, dispatcher = store_env
        cluster.execute(
            effects.Put(DATA_SPACE, K11, VersionedRecord.initial(0, ("c",)))
        )
        strategy = SharedBufferVersionSync(unit_size=10, capacity=1)
        snapshot = SnapshotDescriptor(5, 0)
        strategy.observe_snapshot(snapshot)
        run(dispatcher, strategy.read_records(snapshot, [K1]))
        run(dispatcher, strategy.read_records(snapshot, [K11]))  # evicts K1
        assert list(strategy._records) == [K11]
        assert strategy._unit_members == {(1, 1): {K11}}
        run(dispatcher, strategy.read_records(snapshot, [K1]))  # evicts K11
        assert strategy._unit_members == {(1, 0): {K1}}
        strategy.invalidate(K1)
        assert strategy._unit_members == {}
        assert not strategy._records and not strategy._versions
        assert not strategy._validity

    def test_vset_cell_written_to_store(self, store_env):
        cluster, dispatcher = store_env
        strategy = SharedBufferVersionSync(unit_size=10)
        strategy.observe_snapshot(SnapshotDescriptor(5, 0))
        run(dispatcher, strategy.note_applied(7, K1, VersionedRecord.initial(7, ("u",)), 2))
        value, version = cluster.execute(effects.Get(VSET_SPACE, (1, 0)))
        assert value is not None and version == 1
        assert value.contains(7)


class TestEndToEndWithStrategies:
    @pytest.mark.parametrize("name", ["tb", "sb", "sbvs10", "sbvs1000"])
    def test_transactions_correct_under_each_strategy(self, name):
        cluster = StorageCluster(n_nodes=2)
        cm = CommitManager(0, cluster.execute)
        pn = ProcessingNode(0, buffers=make_strategy(name))
        dispatcher = Dispatcher(cluster, cm, pn_id=0)

        def writer(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn.run_transaction(writer), dispatcher)

        def bump(txn):
            value = yield from txn.read(K1)
            yield from txn.update(K1, (value[0] + 1,))

        for _ in range(20):
            run_direct(pn.run_transaction(bump), dispatcher)

        def check(txn):
            return (yield from txn.read(K1))

        value, _ = run_direct(pn.run_transaction(check), dispatcher)
        assert value == (20,)

    @pytest.mark.parametrize("name", ["sb", "sbvs10"])
    def test_cross_pn_consistency(self, name):
        """Two PNs with shared buffers never serve stale data to newer
        transactions."""
        cluster = StorageCluster(n_nodes=2)
        cm = CommitManager(0, cluster.execute)
        pn_a = ProcessingNode(0, buffers=make_strategy(name))
        pn_b = ProcessingNode(1, buffers=make_strategy(name))
        dispatcher_a = Dispatcher(cluster, cm, pn_id=0)
        dispatcher_b = Dispatcher(cluster, cm, pn_id=1)

        def init(txn):
            txn.insert(K1, (0,))
            return None
            yield

        run_direct(pn_a.run_transaction(init), dispatcher_a)

        def bump(txn):
            value = yield from txn.read(K1)
            yield from txn.update(K1, (value[0] + 1,))

        def read(txn):
            return (yield from txn.read(K1))

        for expected in range(1, 11):
            # alternate writers; the *other* PN must see the new value
            writer_pn, writer_dispatcher = (
                (pn_a, dispatcher_a) if expected % 2 else (pn_b, dispatcher_b)
            )
            reader_pn, reader_dispatcher = (
                (pn_b, dispatcher_b) if expected % 2 else (pn_a, dispatcher_a)
            )
            run_direct(writer_pn.run_transaction(bump), writer_dispatcher)
            value, _ = run_direct(reader_pn.run_transaction(read), reader_dispatcher)
            assert value == (expected,)
