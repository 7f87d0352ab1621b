"""Tests for the latch-free distributed B+tree (Section 5.3)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import effects
from repro.core.spaces import INDEX_SPACE, META_SPACE
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import DuplicateKey, InvalidState
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.index.btree import MAX_RID, BTreeNode, DistributedBTree
from repro.sql.keyenc import encode_key
from repro.sql.schema import Catalog, Column
from repro.sql.table import IndexManager, Table
from repro.sql.types import ColumnType
from repro.store.cell import approx_size
from repro.store.cluster import StorageCluster
from repro.workloads.loader import BulkLoader
from tests.conftest import every_entry_live, interleave


@pytest.fixture
def env():
    cluster = StorageCluster(n_nodes=3)
    dispatcher = Dispatcher(cluster)
    tree = DistributedBTree(index_id=1, max_entries=6)
    run_direct(tree.create(), dispatcher)
    return cluster, dispatcher, tree


def fresh_handle(env):
    """A second tree handle: simulates another PN (separate cache)."""
    tree = env[2]
    return DistributedBTree(index_id=tree.index_id, max_entries=tree.max_entries)


class TestBasicOperations:
    def test_insert_lookup(self, env):
        _c, dispatcher, tree = env
        run_direct(tree.insert((10,), 100), dispatcher)
        assert run_direct(tree.lookup((10,)), dispatcher) == [100]
        assert run_direct(tree.lookup((11,)), dispatcher) == []

    def test_duplicate_entry_returns_false(self, env):
        _c, dispatcher, tree = env
        assert run_direct(tree.insert((10,), 100), dispatcher) is True
        assert run_direct(tree.insert((10,), 100), dispatcher) is False

    def test_non_unique_keys_accumulate(self, env):
        _c, dispatcher, tree = env
        for rid in (3, 1, 2):
            run_direct(tree.insert(("key",), rid), dispatcher)
        assert run_direct(tree.lookup(("key",)), dispatcher) == [1, 2, 3]

    def test_unique_insert_rejects_same_key(self, env):
        _c, dispatcher, tree = env
        run_direct(tree.insert((5,), 1, unique=every_entry_live), dispatcher)
        with pytest.raises(DuplicateKey):
            run_direct(tree.insert((5,), 2, unique=every_entry_live), dispatcher)

    @pytest.mark.parametrize("key, rid, raises", [
        ("m", 3, True),    # the same-key entries sort right after (m, 3)
        ("m", 11, True),   # ... and right before (m, 11)
        ("m", 7, True),    # ... and on both sides of (m, 7)
        ("a", 0, True),    # ... and after it, at the leaf's first slot
        ("mm", 5, False),  # near miss: shares the prefix, not the key
        ("l", 5, False),   # near miss below
    ])
    def test_unique_insert_checks_both_neighbours(self, env, key, rid, raises):
        """One leaf holds same-key entries on one side of the insertion
        point, on both, or none; ``DuplicateKey`` is raised exactly when
        a whole-leaf scan for the key finds one."""
        _c, dispatcher, tree = env
        for other, other_rid in (("a", 1), ("m", 5), ("m", 9), ("z", 1)):
            run_direct(tree.insert((other,), other_rid), dispatcher)
        leaf = run_direct(tree.all_entries(), dispatcher)
        assert raises == any(entry[0] == key for entry in leaf)
        if raises:
            with pytest.raises(DuplicateKey):
                run_direct(tree.insert((key,), rid, unique=every_entry_live), dispatcher)
            assert run_direct(tree.all_entries(), dispatcher) == leaf
        else:
            assert run_direct(tree.insert((key,), rid, unique=every_entry_live), dispatcher) is True

    def test_delete(self, env):
        _c, dispatcher, tree = env
        run_direct(tree.insert((1,), 10), dispatcher)
        assert run_direct(tree.delete((1,), 10), dispatcher) is True
        assert run_direct(tree.delete((1,), 10), dispatcher) is False
        assert run_direct(tree.lookup((1,)), dispatcher) == []

    def test_splits_preserve_order(self, env):
        _c, dispatcher, tree = env
        keys = list(range(200))
        random.Random(1).shuffle(keys)
        for key in keys:
            run_direct(tree.insert((key,), key * 2), dispatcher)
        entries = run_direct(tree.all_entries(), dispatcher)
        assert entries == [(key, key * 2) for key in range(200)]

    def test_range_entries(self, env):
        _c, dispatcher, tree = env
        for key in range(100):
            run_direct(tree.insert((key,), key), dispatcher)
        got = run_direct(tree.range_entries((20,), (30,)), dispatcher)
        assert got == [(key, key) for key in range(20, 30)]

    def test_range_with_limit(self, env):
        _c, dispatcher, tree = env
        for key in range(50):
            run_direct(tree.insert((key,), key), dispatcher)
        got = run_direct(tree.range_entries((0,), None, limit=7), dispatcher)
        assert len(got) == 7

    def test_lookup_on_missing_index_raises(self, env):
        _c, dispatcher, _tree = env
        ghost = DistributedBTree(index_id=999)
        with pytest.raises(InvalidState):
            run_direct(ghost.lookup((1,)), dispatcher)

    def test_create_is_idempotent_under_races(self, env):
        _c, dispatcher, tree = env
        run_direct(tree.insert((1,), 1), dispatcher)
        other = DistributedBTree(index_id=tree.index_id, max_entries=6)
        run_direct(other.create(), dispatcher)  # loses the conditional writes
        assert run_direct(other.lookup((1,)), dispatcher) == [1]


class TestCrossHandleVisibility:
    def test_second_pn_sees_inserts(self, env):
        _c, dispatcher, tree = env
        for key in range(100):
            run_direct(tree.insert((key,), key), dispatcher)
        other = fresh_handle(env)
        assert run_direct(other.lookup((42,)), dispatcher) == [42]

    def test_stale_cache_follows_splits(self, env):
        """A PN whose cached inner nodes predate splits still finds keys
        (B-link move-right), and refreshes its cache."""
        _c, dispatcher, tree = env
        for key in range(0, 40):
            run_direct(tree.insert((key,), key), dispatcher)
        other = fresh_handle(env)
        run_direct(other.lookup((20,)), dispatcher)  # warm other's cache
        # main handle splits leaves to the right of 20 heavily
        for key in range(40, 160):
            run_direct(tree.insert((key,), key), dispatcher)
        for key in (45, 99, 159):
            assert run_direct(other.lookup((key,)), dispatcher) == [key]

    def test_stale_root_cache_after_tree_grows(self, env):
        _c, dispatcher, tree = env
        run_direct(tree.insert((1,), 1), dispatcher)
        other = fresh_handle(env)
        run_direct(other.lookup((1,)), dispatcher)  # caches the 1-level root
        for key in range(2, 300):
            run_direct(tree.insert((key,), key), dispatcher)  # root grows several levels
        assert run_direct(other.lookup((250,)), dispatcher) == [250]

    def test_lookup_many_batches(self, env):
        _c, dispatcher, tree = env
        for key in range(100):
            run_direct(tree.insert((key,), key), dispatcher)
        run_direct(tree.lookup((0,)), dispatcher)  # warm cache
        result = run_direct(tree.lookup_many([(k,) for k in range(0, 100, 7)]), dispatcher)
        for key in range(0, 100, 7):
            assert result[(key,)] == [key]

    def test_lookup_many_cold_cache_falls_back(self, env):
        _c, dispatcher, tree = env
        for key in range(50):
            run_direct(tree.insert((key,), key), dispatcher)
        other = fresh_handle(env)
        result = run_direct(other.lookup_many([(1,), (25,), (49,)]), dispatcher)
        assert result == {(1,): [1], (25,): [25], (49,): [49]}

    def test_lookup_many_after_concurrent_splits(self, env):
        _c, dispatcher, tree = env
        for key in range(0, 200, 2):
            run_direct(tree.insert((key,), key), dispatcher)
        other = fresh_handle(env)
        run_direct(other.lookup((0,)), dispatcher)  # warm cache
        for key in range(1, 200, 2):  # splits under other's feet
            run_direct(tree.insert((key,), key), dispatcher)
        result = run_direct(other.lookup_many([(k,) for k in range(0, 200, 13)]), dispatcher)
        for key in range(0, 200, 13):
            assert result[(key,)] == [key]


class TestConcurrentInterleavings:
    def test_interleaved_inserts_from_two_pns(self, env):
        _c, dispatcher, tree = env
        other = fresh_handle(env)
        gens = [tree.insert((i,), 1000 + i) for i in range(40)]
        gens += [other.insert((i + 40,), 2000 + i) for i in range(40)]
        random.Random(3).shuffle(gens)
        _results, errors = interleave(dispatcher, gens)
        assert not any(errors)
        entries = run_direct(tree.all_entries(), dispatcher)
        assert len(entries) == 80
        assert entries == sorted(entries)

    def test_interleaved_insert_delete(self, env):
        _c, dispatcher, tree = env
        for key in range(30):
            run_direct(tree.insert((key,), key), dispatcher)
        other = fresh_handle(env)
        gens = [tree.delete((key,), key) for key in range(0, 30, 2)]
        gens += [other.insert((key,), key) for key in range(30, 60)]
        _results, errors = interleave(dispatcher, gens)
        assert not any(errors)
        entries = run_direct(tree.all_entries(), dispatcher)
        expected = sorted(
            [(key, key) for key in range(1, 30, 2)]
            + [(key, key) for key in range(30, 60)]
        )
        assert entries == expected

    def test_interleaved_unique_inserts_one_winner(self, env):
        _c, dispatcher, tree = env
        other = fresh_handle(env)
        gens = [tree.insert((7,), 1, unique=every_entry_live),
                other.insert((7,), 2, unique=every_entry_live)]
        _results, errors = interleave(dispatcher, gens)
        dup_errors = [e for e in errors if isinstance(e, DuplicateKey)]
        rids = run_direct(tree.lookup((7,)), dispatcher)
        assert len(rids) == 1
        assert len(dup_errors) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_racing_inserts_leave_no_orphan_node(self, seed):
        """Six PNs insert 80 ascending keys into one narrow tree, all at
        once; a seeded scheduler picks which insert issues its next
        request.  Every node written under the index stays reachable
        from the root: a split or root grow that lost its conditional
        write deletes the node it wrote first."""
        dispatcher = Dispatcher(StorageCluster(n_nodes=3))
        handles = [DistributedBTree(index_id=1, max_entries=4)
                   for _ in range(6)]
        run_direct(handles[0].create(), dispatcher)
        pending = [handles[key % len(handles)].insert((key,), key)
                   for key in range(80)]
        replies = [None] * len(pending)
        rng = random.Random(seed)
        while pending:
            pick = rng.randrange(len(pending))
            try:
                request = pending[pick].send(replies[pick])
            except StopIteration:
                del pending[pick], replies[pick]
                continue
            replies[pick] = dispatcher.execute(request)

        assert run_direct(handles[0].all_entries(), dispatcher) == [
            (key, key) for key in range(80)]
        assert _stored_node_ids(dispatcher, 1) == _reachable_node_ids(dispatcher, 1)


def _stored_node_ids(dispatcher, index_id):
    """Ids of every node cell under ``index_id``; the node-id counter
    bounds them (id 1 is the initial root leaf)."""
    allocated, _version = run_direct(_get(
        META_SPACE, ("counter", ("index_node", index_id))), dispatcher)
    return {
        node_id for node_id in range(1, (allocated or 0) + 2)
        if run_direct(_get(INDEX_SPACE, (index_id, node_id)), dispatcher)[0] is not None
    }


def _reachable_node_ids(dispatcher, index_id):
    """Ids of the nodes reachable from the root by children and right
    links."""
    (root_id, _level), _version = run_direct(_get(
        INDEX_SPACE, (index_id, "root")), dispatcher)
    seen, todo = set(), [root_id]
    while todo:
        node_id = todo.pop()
        if node_id is None or node_id in seen:
            continue
        seen.add(node_id)
        node, _version = run_direct(_get(INDEX_SPACE, (index_id, node_id)), dispatcher)
        todo.append(node.right_id)
        todo.extend(node.children or ())
    return seen


def _get(space, key):
    return (yield effects.Get(space, key))


class TestNodeSize:
    """The simulated size of a node is part of every digest: it is charged
    to the store and to the fabric on each write of the node."""

    def test_encoded_entry_sizes_as_rank_value_pairs(self):
        key = (7, "smith", None)
        nested = ((2, 7), (3, "smith"), (0, False))
        entries = (encode_key(key) + (5,), encode_key((8, "x", 1.5)) + (6,))
        # Each entry is charged as the first one, as a (key, rid) pair
        # of the nested form.
        assert BTreeNode(1, 0, entries).approx_size() == (
            24 + 2 * approx_size((nested, 5)))
        assert approx_size((nested, 5)) == 8 + (8 + 24 + 21 + 17) + 8

    def test_inner_node_adds_its_children(self):
        entries = (encode_key((1, 2)) + (3,),)
        nested = (((2, 1), (2, 2)), 3)
        assert BTreeNode(1, 1, entries, children=(4, 5)).approx_size() == (
            24 + approx_size(nested) + 16)

    @pytest.mark.parametrize("columns", [1, 2, 3, 4])
    def test_size_equals_the_pair_era_rule(self, columns):
        """Leaves and inner nodes over encoded keys of ``columns``
        INT / FLOAT / VARCHAR / NULL columns are charged exactly what
        the node was charged when an entry was a ``(key, rid)`` pair."""
        rng = random.Random(columns)
        values = [lambda: rng.randrange(-10**6, 10**6),
                  lambda: rng.random() * 1e3,
                  lambda: "x" * rng.randrange(0, 12),
                  lambda: None]

        def pair_era(entries, children):
            # The rule before entries were flat: 24 B of node, each entry
            # charged as the first, a (key tuple, rid) pair, plus 8 B per
            # (rank, value) component of an encoded key; 8 B per child.
            per_entry = 8
            if entries:
                key, rid = entries[0]
                per_entry = approx_size((key, rid)) + 8 * (len(key) >> 1)
            return (24 + per_entry * len(entries)
                    + (8 * len(children) if children is not None else 0))

        for count in (0, 1, 5):
            pairs = tuple(sorted(
                (encode_key([rng.choice(values)() for _ in range(columns)]),
                 rng.randrange(1, 10**9))
                for _ in range(count)))
            flat = tuple(key + (rid,) for key, rid in pairs)
            children = tuple(range(2, count + 3))
            assert BTreeNode(1, 0, flat).approx_size() == pair_era(pairs, None)
            assert BTreeNode(1, 1, flat, children=children).approx_size() == (
                pair_era(pairs, children))


class TestBulkBuild:
    def test_bulk_build_equals_incremental(self, env):
        _c, dispatcher, _tree = env
        entries = sorted((key, key * 3) for key in range(500))
        bulk = DistributedBTree(index_id=50, max_entries=16)
        run_direct(bulk.bulk_build(entries), dispatcher)
        assert run_direct(bulk.all_entries(), dispatcher) == entries
        for key in (0, 123, 499):
            assert run_direct(bulk.lookup((key,)), dispatcher) == [key * 3]

    def test_bulk_build_empty(self, env):
        _c, dispatcher, _tree = env
        bulk = DistributedBTree(index_id=51, max_entries=8)
        run_direct(bulk.bulk_build([]), dispatcher)
        assert run_direct(bulk.all_entries(), dispatcher) == []
        run_direct(bulk.insert((1,), 1), dispatcher)
        assert run_direct(bulk.lookup((1,)), dispatcher) == [1]

    def test_bulk_build_rejects_unsorted(self, env):
        _c, dispatcher, _tree = env
        bulk = DistributedBTree(index_id=52)
        with pytest.raises(InvalidState):
            run_direct(bulk.bulk_build([(2, 2), (1, 1)]), dispatcher)

    def test_inserts_after_bulk_build(self, env):
        _c, dispatcher, _tree = env
        entries = sorted((key, key) for key in range(0, 100, 2))
        bulk = DistributedBTree(index_id=53, max_entries=8)
        run_direct(bulk.bulk_build(entries), dispatcher)
        for key in range(1, 100, 2):
            run_direct(bulk.insert((key,), key), dispatcher)
        assert run_direct(bulk.all_entries(), dispatcher) == sorted(
            (key, key) for key in range(100)
        )


# -- property-based model checking ------------------------------------------------


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=120,
    )
)
def test_btree_matches_set_model(operations):
    """Random insert/delete sequences agree with a sorted-set model."""
    cluster = StorageCluster(n_nodes=2)
    dispatcher = Dispatcher(cluster)
    tree = DistributedBTree(index_id=1, max_entries=4)
    run_direct(tree.create(), dispatcher)
    model = set()
    for action, key, rid in operations:
        if action == "insert":
            run_direct(tree.insert((key,), rid), dispatcher)
            model.add((key, rid))
        else:
            run_direct(tree.delete((key,), rid), dispatcher)
            model.discard((key, rid))
    assert run_direct(tree.all_entries(), dispatcher) == sorted(model)
    for key in range(41):
        expected = sorted(r for k, r in model if k == key)
        assert run_direct(tree.lookup((key,)), dispatcher) == expected


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.integers(min_value=0, max_value=1000), max_size=150),
    low=st.integers(min_value=0, max_value=1000),
    span=st.integers(min_value=0, max_value=500),
)
def test_range_scan_matches_model(keys, low, span):
    cluster = StorageCluster(n_nodes=2)
    dispatcher = Dispatcher(cluster)
    tree = DistributedBTree(index_id=1, max_entries=4)
    run_direct(tree.create(), dispatcher)
    model = set()
    for rid, key in enumerate(keys):
        run_direct(tree.insert((key,), rid), dispatcher)
        model.add((key, rid))
    high = low + span
    got = run_direct(tree.range_entries((low,), (high,)), dispatcher)
    expected = sorted(entry for entry in model if low <= entry[0] < high)
    assert got == expected


# -- index ranges against a brute-force model ------------------------------------

#: Small domains, so keys repeat and one key holds many rids.
_DOMAINS = {
    ColumnType.INT: [0, 1, 2, -7],
    ColumnType.FLOAT: [0.5, 1.0, 2.25],
    ColumnType.TEXT: ["", "a", "ab"],
}


@pytest.mark.parametrize("seed", range(12))
def test_index_ranges_match_a_sorted_model(seed):
    """Encoded keys of 1-3 INT / FLOAT / TEXT / NULL columns in a narrow
    tree (leaf and inner splits, bulk-built and inserted entries):
    ``range_entries``, ``lookup``, ``lookup_many`` and
    ``Table.index_range`` -- inclusive and exclusive, prefix and
    full-key bounds -- return what a sorted list of ``(key, rid)``
    filtered by brute force holds."""
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    types = [rng.choice(list(_DOMAINS)) for _ in range(width)]
    catalog = Catalog()
    catalog.define_table(
        "t",
        [Column("id", ColumnType.INT, nullable=False)]
        + [Column(f"c{i}", kind) for i, kind in enumerate(types)],
        ["id"],
    )
    catalog.define_index("t_c", "t", [f"c{i}" for i in range(width)])
    schema = catalog.table("t")
    index = catalog.indexes["t_c"]
    indexes = IndexManager(max_entries=4)
    cluster = StorageCluster(n_nodes=3)
    dispatcher = Dispatcher(cluster, CommitManager(0, cluster.execute),
                            pn_id=0)
    pn = ProcessingNode(0)

    def value(column):
        return rng.choice(_DOMAINS[types[column]] + [None])

    def row(row_id):
        return {"id": row_id, **{f"c{i}": value(i) for i in range(width)}}

    loaded = [schema.make_row(row(i)) for i in range(40)]
    run_direct(BulkLoader(catalog, indexes).load_table("t", loaded), dispatcher)
    rows = dict(enumerate(loaded, start=1))  # the loader's rids
    writer = run_direct(pn.begin(), dispatcher)
    table = Table(schema, writer, indexes)
    for i in range(40, 60):
        values = row(i)
        rows[run_direct(table.insert(values), dispatcher)] = schema.make_row(values)
    run_direct(writer.commit(), dispatcher)
    # The reader's own inserts reach index_range, not the tree.
    reader = run_direct(pn.begin(), dispatcher)
    table = Table(schema, reader, indexes)
    local = {}
    for i in range(60, 63):
        values = row(i)
        local[run_direct(table.insert(values), dispatcher)] = schema.make_row(values)

    def entries(payloads):
        return sorted((encode_key(schema.index_key_of(index, payload)), rid)
                      for rid, payload in payloads.items())

    committed = entries(rows)
    everything = entries({**rows, **local})
    rows.update(local)
    tree = indexes.tree(index)

    def in_range(key, low, high, include_high):
        if low is not None and key < encode_key(low):
            return False
        if high is None:
            return True
        bound = encode_key(high)
        return key[:len(bound)] <= bound if include_high else key < bound

    keys = sorted({key for key, _rid in committed})
    # The key with the most rids, as a full-key inclusive bound: its rids
    # run past 5, which a type-rank sentinel in the rid slot would cut.
    busiest = max(keys, key=lambda key: sum(k == key for k, _ in committed))
    raw = schema.index_key_of(index, rows[next(
        rid for key, rid in committed if key == busiest)])
    assert max(rid for key, rid in committed if key == busiest) > 5
    queries = [(raw, raw, True), (None, raw, True), (raw, raw, False)]
    for _ in range(25):
        low, high = (tuple(value(i) for i in range(rng.randint(1, width)))
                     for _bound in range(2))
        queries.append((rng.choice([low, None]), rng.choice([high, None]),
                        rng.random() < 0.5))

    for low, high, include_high in queries:
        expected = [key + (rid,) for key, rid in committed
                    if in_range(key, low, high, include_high)]
        low_bound = encode_key(low) if low is not None else ()
        if high is None:
            high_bound = None
        else:
            high_bound = encode_key(high) + ((MAX_RID,) if include_high else ())
        assert run_direct(tree.range_entries(low_bound, high_bound), dispatcher) == expected
        assert run_direct(table.index_range(index, low, high, include_high), dispatcher) == [
            (rid, rows[rid]) for key, rid in everything
            if in_range(key, low, high, include_high)]

    probes = keys + [encode_key(("zz",) * width)]  # the last is absent
    rids_of = {key: [rid for k, rid in committed if k == key] for key in probes}
    for key in probes:
        assert run_direct(tree.lookup(key), dispatcher) == rids_of[key]
    # Warm inner nodes answer most keys from one batched leaf fetch;
    # a fresh handle takes the descent for every key.
    assert run_direct(tree.lookup_many(probes), dispatcher) == rids_of
    fresh = DistributedBTree(tree.index_id, max_entries=4)
    assert run_direct(fresh.lookup_many(probes), dispatcher) == rids_of
