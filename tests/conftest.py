"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import random
import time

import pytest

from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.store.cluster import StorageCluster


def every_entry_live(_key, _rid):
    """Unique row check for tree-level tests: every existing same-key
    entry is live, so any one makes a unique insert a duplicate."""
    return True
    yield  # a coroutine function, like the SQL layer's row check


#: Host entropy a seeded run must never read: the host clocks and the
#: module-level functions of the process-global RNG.  Seeded
#: ``random.Random`` instances are separate objects and stay usable.
TRAPPED_CLOCKS = ("time", "time_ns", "perf_counter", "perf_counter_ns",
                  "monotonic", "monotonic_ns")
TRAPPED_RANDOM = ("random", "randint", "choice", "shuffle", "uniform",
                  "randrange", "sample", "seed", "getrandbits")


@contextlib.contextmanager
def host_clock_trap():
    """Replace the host clocks and the global RNG with traps for the body.

    Yields the list of trapped calls.  Each trap records its call and
    raises; a coroutine may swallow the raise, so callers assert on the
    list, not on the exception.
    """
    calls = []

    def trap(name):
        def trapped(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"{name}() called during a seeded run")
        return trapped

    with pytest.MonkeyPatch.context() as patch:
        for name in TRAPPED_CLOCKS:
            patch.setattr(time, name, trap(f"time.{name}"))
        for name in TRAPPED_RANDOM:
            patch.setattr(random, name, trap(f"random.{name}"))
        yield calls


@pytest.fixture
def cluster():
    """A small storage cluster without replication."""
    return StorageCluster(n_nodes=3, replication_factor=1)


@pytest.fixture
def replicated_cluster():
    """Three nodes, RF3: every partition exists everywhere."""
    return StorageCluster(n_nodes=3, replication_factor=3)


@pytest.fixture
def dispatcher(cluster):
    """A direct dispatcher with a commit manager attached."""
    commit_manager = CommitManager(0, cluster.execute, tid_range_size=64)
    return Dispatcher(cluster, commit_manager, pn_id=0)


@pytest.fixture
def pn():
    return ProcessingNode(0)


@pytest.fixture
def db():
    """An embedded database, closed again after the test."""
    import repro

    with repro.connect(storage_nodes=3, replication_factor=1) as database:
        yield database


def interleave(dispatcher, generators):
    """Drive several protocol coroutines round-robin, one request each.

    This produces adversarial interleavings at every request boundary --
    the direct-mode analogue of concurrent PNs racing on shared state.
    Returns the list of results (StopIteration values) in input order.

    With interceptors configured, each coroutine gets its own dispatcher
    clone (sharing the same interceptor instances): stateful middleware
    such as the ``repro.san`` sanitizers attribute requests to logical
    workers by dispatch context, and a shared context would fold every
    interleaved transaction into one.
    """
    from repro.errors import TellError

    dispatchers = [dispatcher] * len(generators)
    if dispatcher.interceptors:
        dispatchers = [
            type(dispatcher)(dispatcher.cluster, dispatcher.commit_manager,
                             pn_id=dispatcher.pn_id,
                             interceptors=dispatcher.interceptors)
            for _ in generators
        ]
    states = [(i, gen, None, None) for i, gen in enumerate(generators)]
    results = [None] * len(generators)
    errors = [None] * len(generators)
    pending = states
    while pending:
        next_round = []
        for index, gen, value, exc in pending:
            try:
                if exc is not None:
                    request = gen.throw(exc)
                else:
                    request = gen.send(value)
            except StopIteration as stop:
                results[index] = stop.value
                continue
            except TellError as error:
                errors[index] = error
                continue
            try:
                outcome = dispatchers[index].execute(request)
                next_round.append((index, gen, outcome, None))
            except TellError as error:
                next_round.append((index, gen, None, error))
        pending = next_round
    return results, errors
