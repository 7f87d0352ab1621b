"""Randomized interleaving stress tests for snapshot-isolation invariants.

The key guarantees under test:

* *atomic visibility*: keys always written together are always read
  equal, no matter how transactions interleave;
* *no lost updates*: the sum of successfully committed increments equals
  the final counter values;
* *consistent snapshots across keys*: a reader never observes one key
  from transaction T and another key from "before T".
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.core.spaces import data_key
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.san import make_sanitizers, sanitizers_enabled
from repro.store.cluster import StorageCluster
from tests.conftest import interleave

PAIR_A = data_key(1, 1)
PAIR_B = data_key(1, 2)

#: ViolationLogs of every sanitized fresh_env built during the current
#: test, drained (and asserted clean) by the autouse fixture below.
_SANITIZER_LOGS = []


def fresh_env(n_pns=2):
    """Build a cluster + CM + PNs; with ``REPRO_SANITIZE=1`` every
    runner carries the SI/GC/version-chain sanitizer chain."""
    cluster = StorageCluster(n_nodes=3)
    cm = CommitManager(0, cluster.execute, tid_range_size=8)
    pns = [ProcessingNode(i) for i in range(n_pns)]
    chain = ()
    if sanitizers_enabled():
        log, chain = make_sanitizers()
        _SANITIZER_LOGS.append(log)
    dispatchers = [
        Dispatcher(cluster, cm, pn_id=i, interceptors=chain)
        for i in range(n_pns)
    ]
    return cluster, cm, pns, dispatchers


@pytest.fixture(autouse=True)
def _sanitizers_stay_clean():
    """Every test in this module doubles as a sanitizer soak when
    ``REPRO_SANITIZE=1``: the invariant checkers must agree that the
    interleavings they watched were serializable-snapshot clean."""
    _SANITIZER_LOGS.clear()
    yield
    for log in _SANITIZER_LOGS:
        log.assert_clean()
    _SANITIZER_LOGS.clear()


def seed_pair(pn, dispatcher):
    def logic(txn):
        txn.insert(PAIR_A, (0,))
        txn.insert(PAIR_B, (0,))
        return None
        yield

    run_direct(pn.run_transaction(logic), dispatcher)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_paired_writes_always_read_equal(seed):
    """Writers bump both keys to the same value; readers interleaved at
    every request boundary must always see A == B."""
    cluster, cm, pns, dispatchers = fresh_env()
    seed_pair(pns[0], dispatchers[0])
    rng = random.Random(seed)

    observations = []

    def writer(pn, value):
        def logic(txn):
            yield from txn.update(PAIR_A, (value,))
            yield from txn.update(PAIR_B, (value,))

        def attempt():
            from repro.errors import TransactionAborted

            try:
                yield from pn.run_transaction(logic)
            except TransactionAborted:
                pass

        return attempt()

    def reader(pn):
        def logic(txn):
            rows = yield from txn.read_many([PAIR_A, PAIR_B])
            return rows[PAIR_A], rows[PAIR_B]

        def attempt():
            result, _ = yield from pn.run_transaction(logic)
            observations.append(result)

        return attempt()

    generators = []
    for i in range(6):
        generators.append(writer(pns[i % 2], i + 1))
    for _ in range(8):
        generators.append(reader(pns[rng.randint(0, 1)]))
    rng.shuffle(generators)
    _results, errors = interleave(dispatchers[0], generators)
    assert not any(errors)
    for a, b in observations:
        assert a == b, f"torn read: A={a} B={b}"


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_no_lost_increments(seed):
    """Counters bumped by racing transactions with retries: the final
    values equal the number of successful commits per key."""
    cluster, cm, pns, dispatchers = fresh_env()
    keys = [data_key(2, i) for i in range(4)]

    def init(txn):
        for key in keys:
            txn.insert(key, (0,))
        return None
        yield

    run_direct(pns[0].run_transaction(init), dispatchers[0])
    rng = random.Random(seed)
    successes = {key: 0 for key in keys}

    def bumper(pn, key):
        def logic(txn):
            value = yield from txn.read(key)
            yield from txn.update(key, (value[0] + 1,))

        def attempt():
            from repro.errors import TransactionAborted

            try:
                yield from pn.run_transaction(logic)
                successes[key] += 1
            except TransactionAborted:
                pass

        return attempt()

    generators = [
        bumper(pns[rng.randint(0, 1)], rng.choice(keys)) for _ in range(20)
    ]
    _results, errors = interleave(dispatchers[0], generators)
    assert not any(errors)

    def check(txn):
        return (yield from txn.read_many(keys))

    final, _ = run_direct(pns[0].run_transaction(check), dispatchers[0])
    for key in keys:
        assert final[key] == (successes[key],)


def test_read_only_transactions_never_abort():
    """Readers make progress regardless of write churn (SI is optimistic
    but read-only transactions have empty write sets)."""
    from repro.errors import TransactionAborted

    cluster, cm, pns, dispatchers = fresh_env()
    seed_pair(pns[0], dispatchers[0])

    def writer(txn):
        value = yield from txn.read(PAIR_A)
        yield from txn.update(PAIR_A, (value[0] + 1,))
        yield from txn.update(PAIR_B, (value[0] + 1,))

    def reader(txn):
        return (yield from txn.read_many([PAIR_A, PAIR_B]))

    def guarded(pn, logic):
        def attempt():
            try:
                yield from pn.run_transaction(logic)
                return True
            except TransactionAborted:
                return False

        return attempt()

    generators = [guarded(pns[0], writer) for _ in range(8)]
    reader_gens = [guarded(pns[1], reader) for _ in range(8)]
    all_gens = []
    for pair in zip(generators, reader_gens):
        all_gens.extend(pair)
    results, errors = interleave(dispatchers[0], all_gens)
    assert not any(errors)
    # all readers (odd positions) succeeded
    assert all(results[1::2])


def test_monotonic_reads_across_transactions():
    """Consecutive transactions on one PN never observe time going
    backwards (their snapshots only grow)."""
    cluster, cm, pns, dispatchers = fresh_env(n_pns=1)
    seed_pair(pns[0], dispatchers[0])
    pn, dispatcher = pns[0], dispatchers[0]

    last_seen = -1
    for i in range(10):
        def bump(txn, value=i):
            yield from txn.update(PAIR_A, (value,))

        run_direct(pn.run_transaction(bump), dispatcher)

        def read(txn):
            return (yield from txn.read(PAIR_A))

        value, _ = run_direct(pn.run_transaction(read), dispatcher)
        assert value[0] >= last_seen
        last_seen = value[0]
