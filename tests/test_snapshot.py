"""Tests for snapshot descriptors and the committed set (Section 4.2)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.snapshot import CommittedSet, SnapshotDescriptor


class TestSnapshotDescriptor:
    def test_empty_snapshot_sees_only_zero(self):
        snapshot = SnapshotDescriptor(0, 0)
        assert snapshot.contains(0)
        assert not snapshot.contains(1)

    def test_base_covers_prefix(self):
        snapshot = SnapshotDescriptor(5, 0)
        for tid in range(6):
            assert snapshot.contains(tid)
        assert not snapshot.contains(6)

    def test_bits_represent_tids_above_base(self):
        # bit 0 -> base+1; by construction b+1 itself is never set after
        # normalization, so set bit 1 (tid base+2).
        snapshot = SnapshotDescriptor(3, 0b10)
        assert snapshot.contains(5)
        assert not snapshot.contains(4)
        assert not snapshot.contains(6)

    def test_normalization_advances_base(self):
        # bits 0b111 means base+1..base+3 completed -> base moves by 3.
        snapshot = SnapshotDescriptor(2, 0b111)
        assert snapshot.base == 5
        assert snapshot.bits == 0

    def test_normalization_partial(self):
        snapshot = SnapshotDescriptor(0, 0b1011)
        assert snapshot.base == 2
        assert snapshot.bits == 0b10

    def test_latest_visible_picks_max_member(self):
        snapshot = SnapshotDescriptor(4, 0b10)  # sees <=4 and 6
        assert snapshot.latest_visible([1, 6, 5]) == 6
        assert snapshot.latest_visible([5, 7]) is None
        assert snapshot.latest_visible([]) is None

    def test_with_completed(self):
        snapshot = SnapshotDescriptor(0, 0)
        grown = snapshot.with_completed(1)
        assert grown.base == 1
        assert snapshot.base == 0  # immutable
        sparse = snapshot.with_completed(3)
        assert sparse.base == 0
        assert sparse.contains(3)
        assert not sparse.contains(1)

    def test_with_completed_below_base_is_noop(self):
        snapshot = SnapshotDescriptor(9, 0)
        assert snapshot.with_completed(4) is snapshot

    def test_newly_completed_listing(self):
        snapshot = SnapshotDescriptor(10, 0).with_completed(12).with_completed(15)
        assert snapshot.newly_completed() == [12, 15]

    def test_equality_and_hash(self):
        a = SnapshotDescriptor(3, 0b10)
        b = SnapshotDescriptor(3, 0b10)
        assert a == b
        assert hash(a) == hash(b)
        assert a != SnapshotDescriptor(3, 0b100)

    def test_union_same_base(self):
        a = SnapshotDescriptor(2, 0b100)  # sees 5
        b = SnapshotDescriptor(2, 0b010)  # sees 4
        union = a.union(b)
        assert union.contains(4) and union.contains(5)
        assert not union.contains(3)

    def test_union_different_bases(self):
        a = SnapshotDescriptor(10, 0)
        b = SnapshotDescriptor(4, 0b1000000)  # sees <=4 and 11
        union = a.union(b)
        assert union.base == 11

    def test_issubset_reflexive(self):
        snapshot = SnapshotDescriptor(7, 0b1010)
        assert snapshot.issubset(snapshot)

    def test_issubset_base_ordering(self):
        small = SnapshotDescriptor(3, 0)
        large = SnapshotDescriptor(8, 0)
        assert small.issubset(large)
        assert not large.issubset(small)

    def test_issubset_with_bits(self):
        small = SnapshotDescriptor(3, 0b10)   # {<=3, 5}
        large = SnapshotDescriptor(3, 0b1010)  # {<=3, 5, 7}
        assert small.issubset(large)
        assert not large.issubset(small)

    def test_issubset_bits_vs_base(self):
        small = SnapshotDescriptor(2, 0b10)  # {<=2, 4}
        large = SnapshotDescriptor(6, 0)     # {<=6}
        assert small.issubset(large)

    def test_approx_size_grows_with_bits(self):
        small = SnapshotDescriptor(0, 0)
        big = SnapshotDescriptor(0, 1 << 8000)
        assert big.approx_size() > small.approx_size()

    def test_repr_truncates(self):
        snapshot = SnapshotDescriptor(0, 0)
        for tid in range(2, 20, 2):
            snapshot = snapshot.with_completed(tid)
        assert "..." in repr(snapshot)


class TestCommittedSet:
    def test_sequential_commits_advance_base(self):
        committed = CommittedSet()
        for tid in (1, 2, 3):
            committed.mark_completed(tid)
        assert committed.base == 3
        assert committed.bits == 0

    def test_out_of_order_commits(self):
        committed = CommittedSet()
        committed.mark_completed(3)
        assert committed.base == 0
        committed.mark_completed(1)
        assert committed.base == 1
        committed.mark_completed(2)
        assert committed.base == 3

    def test_duplicate_and_stale_marks_are_noops(self):
        committed = CommittedSet()
        committed.mark_completed(1)
        committed.mark_completed(1)
        assert committed.base == 1

    def test_snapshot_is_independent_copy(self):
        committed = CommittedSet()
        committed.mark_completed(1)
        snapshot = committed.snapshot()
        committed.mark_completed(2)
        assert snapshot.base == 1
        assert committed.base == 2

    def test_merge_snapshot(self):
        committed = CommittedSet()
        committed.mark_completed(2)  # {2}
        committed.merge_snapshot(SnapshotDescriptor(1, 0))
        assert committed.base == 2  # 1 and 2 both done

    def test_contains(self):
        committed = CommittedSet()
        committed.mark_completed(5)
        assert committed.contains(0)
        assert committed.contains(5)
        assert not committed.contains(3)


# -- property-based tests ------------------------------------------------------


tid_sets = st.lists(st.integers(min_value=1, max_value=200), max_size=60)


@given(tid_sets)
def test_membership_matches_model(tids):
    """The bitset implementation agrees with a plain-set model."""
    committed = CommittedSet()
    for tid in tids:
        committed.mark_completed(tid)
    model = set(tids) | {0}
    snapshot = committed.snapshot()
    for tid in range(0, 205):
        expected = tid in model or tid == 0
        # base coverage: everything <= base must be in the model too
        assert snapshot.contains(tid) == (tid <= snapshot.base or tid in model)
    # Normalization invariant: base+1 is never completed.
    assert snapshot.base + 1 not in model


@given(tid_sets)
def test_base_is_longest_prefix(tids):
    committed = CommittedSet()
    for tid in tids:
        committed.mark_completed(tid)
    model = set(tids)
    expected_base = 0
    while expected_base + 1 in model:
        expected_base += 1
    assert committed.base == expected_base


@given(tid_sets, tid_sets)
def test_union_is_set_union(tids_a, tids_b):
    a = CommittedSet()
    for tid in tids_a:
        a.mark_completed(tid)
    b = CommittedSet()
    for tid in tids_b:
        b.mark_completed(tid)
    union = a.snapshot().union(b.snapshot())
    for tid in range(0, 205):
        assert union.contains(tid) == (
            a.snapshot().contains(tid) or b.snapshot().contains(tid)
        )


@given(tid_sets, tid_sets)
def test_issubset_matches_set_semantics(tids_a, tids_b):
    a = CommittedSet()
    for tid in tids_a:
        a.mark_completed(tid)
    b = CommittedSet()
    for tid in tids_b + tids_a:
        b.mark_completed(tid)
    # b contains everything in a, so a ⊆ b must hold.
    assert a.snapshot().issubset(b.snapshot())


@given(tid_sets, st.integers(min_value=1, max_value=200))
def test_issubset_detects_missing_member(tids, extra):
    a = CommittedSet()
    for tid in tids:
        a.mark_completed(tid)
    bigger = CommittedSet()
    for tid in tids:
        bigger.mark_completed(tid)
    bigger.mark_completed(extra)
    grown = a.snapshot().with_completed(extra + 1)
    # A snapshot containing extra+1 is only a subset of one that has it.
    if not bigger.snapshot().contains(extra + 1):
        assert not grown.issubset(bigger.snapshot())
