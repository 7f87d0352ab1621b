"""Failure injection for the latch-free B+tree.

The point of a latch-free index (Section 5.3) is that a processing node
can die at *any* instant without leaving the tree in a state that blocks
or corrupts other nodes: every intermediate state either is invisible
(fresh nodes not yet linked) or remains navigable through sibling links.
These tests crash a writer's coroutine at chosen request boundaries --
exactly what a PN crash does -- via the dispatch pipeline's
:class:`~repro.dispatch.CrashPoint` interceptor, and verify other
handles keep working.
"""

import pytest

from repro import effects
from repro.dispatch import CrashPoint, InjectedCrash
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.index.btree import DistributedBTree
from repro.store.cluster import StorageCluster


@pytest.fixture
def env():
    cluster = StorageCluster(n_nodes=2)
    dispatcher = Dispatcher(cluster)
    tree = DistributedBTree(index_id=1, max_entries=4)
    run_direct(tree.create(), dispatcher)
    return cluster, dispatcher, tree


def run_until_crash(cluster, generator, crash_predicate):
    """Drive a coroutine through a pipeline that crashes it right after
    the first request satisfying ``crash_predicate`` has been executed
    (simulated PN crash).  Returns True if the crash fired."""
    crash = CrashPoint(crash_predicate)
    dispatcher = Dispatcher(cluster, interceptors=[crash])
    try:
        effects.run_direct(generator, dispatcher)
    except InjectedCrash:
        pass
    return crash.fired


def fill_leaf(dispatcher, tree, count=4):
    for key in range(count):
        run_direct(tree.insert((key,), key), dispatcher)


class TestCrashMidSplit:
    def test_crash_after_right_node_created(self, env):
        """Crash between writing the new right sibling and CASing the
        left half: the right node is unreachable garbage; the tree is
        untouched and fully usable."""
        cluster, dispatcher, tree = env
        fill_leaf(dispatcher, tree)  # leaf now full (max_entries=4)

        def stop_after_right_put(request):
            return (
                isinstance(request, effects.Put)
                and request.space == "index"
                and not isinstance(request.key[1], str)  # a node, not root
            )

        crashed = run_until_crash(
            cluster, tree.insert((10,), 10), stop_after_right_put
        )
        assert crashed, "the insert should have split"
        # Another PN's handle sees the original four keys, can insert, read.
        other = DistributedBTree(index_id=1, max_entries=4)
        assert run_direct(other.all_entries(), dispatcher) == [(k, k) for k in range(4)]
        run_direct(other.insert((10,), 10), dispatcher)
        assert run_direct(other.lookup((10,)), dispatcher) == [10]

    def test_crash_after_left_cas_before_parent_update(self, env):
        """Crash with the split half-done (left CASed, separator not yet
        in the parent): keys stay reachable through the sibling link."""
        cluster, dispatcher, tree = env
        # Build a two-level tree first so there is a parent to update.
        for key in range(0, 40, 2):
            run_direct(tree.insert((key,), key), dispatcher)

        def stop_after_leaf_cas(request):
            return (
                isinstance(request, effects.PutIfVersion)
                and request.space == "index"
                and getattr(request.value, "is_leaf", False)
                and request.value.right_id is not None
            )

        # Insert odd keys until one triggers a leaf split, then crash.
        crashed = False
        key = 1
        while not crashed and key < 40:
            crashed = run_until_crash(
                cluster, tree.insert((key,), key), stop_after_leaf_cas
            )
            key += 2
        assert crashed, "no split happened; widen the key range"

        inserted_odds = list(range(1, key, 2))
        other = DistributedBTree(index_id=1, max_entries=4)
        # Every key -- including those in the half-linked new leaf -- is
        # reachable (B-link move-right), and new inserts repair/extend.
        for probe in list(range(0, 40, 2)) + inserted_odds:
            assert run_direct(other.lookup((probe,)), dispatcher) == [probe], probe
        run_direct(other.insert((999,), 999), dispatcher)
        assert run_direct(other.lookup((999,)), dispatcher) == [999]
        entries = run_direct(other.all_entries(), dispatcher)
        assert entries == sorted(entries)

    def test_crash_during_root_growth(self, env):
        """Crash after the new root node is written but before the root
        pointer CAS: the old root remains valid."""
        cluster, dispatcher, tree = env

        def stop_after_new_root_put(request):
            return (
                isinstance(request, effects.Put)
                and request.space == "index"
                and getattr(request.value, "children", None) is not None
            )

        crashed = False
        key = 0
        while not crashed and key < 100:
            crashed = run_until_crash(
                cluster, tree.insert((key,), key), stop_after_new_root_put
            )
            key += 1
        assert crashed, "tree never tried to grow its root"

        other = DistributedBTree(index_id=1, max_entries=4)
        for probe in range(key - 1):  # all fully-inserted keys
            assert run_direct(other.lookup((probe,)), dispatcher) == [probe]
        for extra in range(200, 260):
            run_direct(other.insert((extra,), extra), dispatcher)
        entries = run_direct(other.all_entries(), dispatcher)
        assert entries == sorted(entries)


class TestRepeatedCrashes:
    def test_many_crashed_writers_leave_consistent_tree(self, env):
        """A barrage of writers each crashing at a random request leaves
        the tree consistent for a final survivor."""
        import random

        cluster, dispatcher, tree = env
        rng = random.Random(9)
        committed = set()
        for key in range(120):
            budget = rng.randint(1, 6)
            counter = {"n": 0}

            def stop_after_n(request, budget=budget, counter=counter):
                counter["n"] += 1
                return counter["n"] >= budget

            handle = DistributedBTree(index_id=1, max_entries=4)
            crashed = run_until_crash(
                cluster, handle.insert((key,), key), stop_after_n
            )
            if not crashed:
                committed.add(key)
        survivor = DistributedBTree(index_id=1, max_entries=4)
        entries = run_direct(survivor.all_entries(), dispatcher)
        assert entries == sorted(entries)
        present = {key for key, _rid in entries}
        # every fully-completed insert must be present
        assert committed <= present
        # and the survivor can still operate
        run_direct(survivor.insert((10_000,), 1), dispatcher)
        assert run_direct(survivor.lookup((10_000,)), dispatcher) == [1]
