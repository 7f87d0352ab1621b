"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import random
import time

import pytest

from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Dispatcher
from repro.runtime.config import SimulationConfig
from repro.runtime.fabric import PN_CORES, CorePool, SimFabric, drive
from repro.sim.kernel import Simulator
from repro.store.cluster import StorageCluster
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale


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


class FabricRig:
    """The simulated fabric over ``cluster`` with no workload, for tests
    that time single requests or drive protocol scripts: one kernel, one
    fabric and processing node 0's core pool.

    ``commit_managers`` defaults to one manager over the cluster;
    ``config`` sets the :class:`SimulationConfig` fields the fabric
    reads (``network``, ``batching``).
    """

    def __init__(self, cluster, commit_managers=None, **config):
        self.sim = Simulator()
        self.cluster = cluster
        if commit_managers is None:
            commit_managers = [CommitManager(0, cluster.execute)]
        self.fabric = SimFabric(
            self.sim, cluster, commit_managers,
            SimulationConfig(storage_nodes=len(cluster.nodes),
                             replication_factor=cluster.replication_factor,
                             **config),
        )
        self.pool = CorePool(PN_CORES)

    def perform(self, *requests, pool=None):
        """Send ``requests`` one after the other from one simulated
        process on PN 0's pool (or on ``pool``) and return their results;
        ``sim.now`` is then the instant the last one finished."""
        pool = self.pool if pool is None else pool
        results = []

        def process():
            for request in requests:
                results.append(
                    (yield from self.fabric.perform(pool, 0, request)))

        self.sim.run_until_complete(self.sim.spawn(process()))
        return results

    def run(self, script):
        """Run a protocol coroutine as one simulated process on PN 0
        through :func:`drive`; returns its result."""
        return self.sim.run_until_complete(self.sim.spawn(
            drive(self.fabric, (), self.pool, 0, script, 0)))


# -- shared runs --------------------------------------------------------------
#
# A seeded run computes the same result every time, so tests that only
# read one share it: a ``shared_run`` fixture runs it once per module
# (or session) and hands the same finished run to each of them.  A test
# that changes the run must not take it from such a fixture; the guard
# below fails that test by name instead of letting it skew later ones.

#: The names of the fixtures declared with :func:`shared_run`.
SHARED_RUNS = set()


def shared_run(scope="module"):
    """Declare a fixture that hands one finished run to many tests.

    The fixture returns the run (a deployment or a baseline engine) or a
    tuple whose first item is the run.
    """
    def declare(function):
        SHARED_RUNS.add(function.__name__)
        return pytest.fixture(scope=scope)(function)
    return declare


def run_state(run):
    """What a test must leave as it found it in a shared run: the metrics
    digest and, for a deployment, its stored bytes, its partition-map
    epoch and every commit manager's active transactions."""
    if isinstance(run, tuple):
        run = run[0]
    state = [run.metrics.digest()]
    cluster = getattr(run, "cluster", None)
    if cluster is not None:
        state += [cluster.total_bytes(), cluster.partition_map.epoch,
                  [manager.active_transactions()
                   for manager in run.commit_managers]]
    return state


@pytest.fixture(autouse=True)
def _shared_runs_unchanged(request):
    names = sorted(SHARED_RUNS.intersection(request.fixturenames))
    runs = [request.getfixturevalue(name) for name in names]
    handed_out = [run_state(run) for run in runs]
    yield
    for name, run, state in zip(names, runs, handed_out):
        assert run_state(run) == state, (
            f"{request.node.nodeid} changed the shared run {name!r}; "
            f"a test that changes its run needs a run of its own")


def tiny_tell_config(**overrides):
    """One PN with four terminals over two SNs and two tiny warehouses,
    60 simulated ms at seed 5."""
    defaults = dict(
        processing_nodes=1,
        storage_nodes=2,
        threads_per_pn=4,
        scale=TpccScale.tiny(2),
        duration_us=60_000.0,
        warmup_us=10_000.0,
        seed=5,
    )
    defaults.update(overrides)
    return TellConfig(**defaults)


def finished(deployment):
    """``deployment`` (or a baseline engine) after its run."""
    deployment.run()
    return deployment


@shared_run(scope="session")
def tiny_run():
    """The ``tiny_tell_config()`` run."""
    return finished(SimulatedTell(tiny_tell_config()))


@shared_run(scope="session")
def tiny_run_seed6():
    """The ``tiny_tell_config(seed=6)`` run."""
    return finished(SimulatedTell(tiny_tell_config(seed=6)))
