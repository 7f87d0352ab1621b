"""Unit tests for the repro.dispatch pipeline.

Covers the shared classification (kind_of), the direct Dispatcher, the
compose/interceptor protocol, the three production interceptors, the
run_direct error contract, and the Request __repr__ coverage that makes
traces readable.
"""

import importlib
import json
import pkgutil

import pytest

import repro
from repro import effects
from repro.dispatch import (
    KIND_BATCH,
    KIND_CM_ABORTED,
    KIND_CM_COMMITTED,
    KIND_CM_START,
    KIND_CM_VALIDATE,
    KIND_COMPUTE,
    KIND_SCAN,
    KIND_SLEEP,
    KIND_STORE,
    CrashPoint,
    DispatchContext,
    Dispatcher,
    FaultInjector,
    FaultRule,
    InjectedCrash,
    Interceptor,
    RetryPolicy,
    TraceInterceptor,
    compose,
    drive_sync,
    kind_of,
)
from repro.errors import NodeUnavailable, TellError
from repro.sim.kernel import Delay, Event
from repro.store.cluster import StorageCluster
from tests.conftest import FabricRig


#: Every ``Request`` subclass :mod:`repro.effects` defines, and the
#: abstract ones among them.
EFFECT_CLASSES = {
    cls for cls in vars(effects).values()
    if isinstance(cls, type) and issubclass(cls, effects.Request)
    and cls is not effects.Request
}
ABSTRACT_EFFECTS = {effects.StoreRequest, effects.CommitManagerRequest}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestKindOf:
    def test_exact_classes(self):
        assert kind_of(effects.Get("s", 1)) == KIND_STORE
        assert kind_of(effects.Put("s", 1, 2)) == KIND_STORE
        assert kind_of(effects.PutIfVersion("s", 1, 2, 0)) == KIND_STORE
        assert kind_of(effects.Delete("s", 1)) == KIND_STORE
        assert kind_of(effects.DeleteIfVersion("s", 1, 0)) == KIND_STORE
        assert kind_of(effects.Increment("s", 1)) == KIND_STORE
        assert kind_of(effects.Scan("s", None, None)) == KIND_SCAN
        assert kind_of(effects.multi_get("s", [])) == KIND_BATCH
        assert kind_of(effects.multi_put("s", [1], [2])) == KIND_BATCH
        assert kind_of(effects.StartTransaction()) == KIND_CM_START
        assert kind_of(effects.ReportCommitted(1)) == KIND_CM_COMMITTED
        assert kind_of(effects.ReportAborted(1)) == KIND_CM_ABORTED
        assert kind_of(effects.Compute(1.0)) == KIND_COMPUTE
        assert kind_of(effects.Sleep(1.0)) == KIND_SLEEP

    @pytest.mark.parametrize("base, args", [
        (effects.Get, ("data", "k")),
        (effects.Put, ("data", "k", "v2")),
        (effects.Scan, ("data", None, None)),
    ], ids=["Get", "Put", "Scan"])
    def test_subclass_inherits_kind_write_and_store_call(self, base, args):
        fancy = type(f"Fancy{base.__name__}", (base,), {"__slots__": ()})
        assert kind_of(fancy(*args)) == kind_of(base(*args))
        assert fancy.is_write == base.is_write

        def run_fabric(cluster, request):
            (result,) = FabricRig(cluster).perform(request)
            return result

        for run in (StorageCluster.execute, run_fabric):
            results = []
            for cls in (base, fancy):
                cluster = StorageCluster(n_nodes=2, replication_factor=2)
                cluster.execute(effects.Put("data", "k", "v1"))
                results.append(run(cluster, cls(*args)))
                # RF2 on two nodes: the cell lives on both; a write must
                # have reached the backup, a read must have changed nothing.
                pid = cluster.partition_of("k")
                assert [
                    cluster.nodes[n].partition(pid).space("data")["k"].value
                    for n in cluster.partition_map.replicas_of(pid)
                ] == (["v2", "v2"] if base.is_write else ["v1", "v1"])
            assert results[0] == results[1] and results[0]

    def test_vocabulary_declares_itself(self):
        # Every class of the Request closure in repro.effects: concrete
        # ones resolve a kind, the abstract bases none; every store
        # request also resolves its write-ness and its node operation.
        concrete = EFFECT_CLASSES - ABSTRACT_EFFECTS
        assert len(concrete) == 14
        for cls in concrete:
            assert KIND_STORE <= cls.kind <= KIND_CM_VALIDATE, cls
        for cls in ABSTRACT_EFFECTS:
            assert not hasattr(cls, "kind")

        class RecordingNode:
            def __getattr__(self, name):
                return lambda *args, **kwargs: name

        store_vocabulary = [
            (effects.Get("s", 1), False, "do_get"),
            (effects.Put("s", 1, 2), True, "do_put"),
            (effects.PutIfVersion("s", 1, 2, 0), True, "do_put_if_version"),
            (effects.Delete("s", 1), True, "do_delete"),
            (effects.DeleteIfVersion("s", 1, 0), True, "do_delete_if_version"),
            (effects.Increment("s", 1), True, "do_increment"),
            (effects.Scan("s", None, None), False, "do_scan"),
        ]
        assert {type(op) for op, _w, _n in store_vocabulary} == {
            cls for cls in concrete if issubclass(cls, effects.StoreRequest)
        }
        for op, is_write, node_op in store_vocabulary:
            assert op.is_write is is_write
            assert op.apply(RecordingNode(), 0) == node_op

    def test_unroutable_raises_type_error(self):
        with pytest.raises(TypeError):
            kind_of("not a request")
        with pytest.raises(TypeError):
            kind_of(effects.Request())
        with pytest.raises(TypeError):  # abstract bases declare no kind
            kind_of(effects.StoreRequest("s", 1))


def _shipped(cls):
    return cls.__module__.split(".")[0] == "repro"


def _repro_tree(root):
    """``root`` and every subclass of it defined under ``repro``, after
    importing every ``repro`` module.  Subclasses that tests define are
    ignored: they are not shipped."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    found, stack = {root}, [root]
    while stack:
        for sub in stack.pop().__subclasses__():
            if _shipped(sub) and sub not in found:
                found.add(sub)
                stack.append(sub)
    return found


def _repro_request_leaves():
    """Every ``Request`` class under ``repro`` that no other ``repro``
    class subclasses."""
    return {cls for cls in _repro_tree(effects.Request)
            if not any(_shipped(sub) for sub in cls.__subclasses__())}


def test_every_concrete_request_declares_a_kind():
    # Dispatcher exhaustiveness: a concrete request class with no kind
    # of its own or inherited raises `TypeError: unroutable request` the
    # first time anything yields it.
    leaves = _repro_request_leaves()
    assert len(leaves) >= 14
    assert sorted(cls.__qualname__ for cls in leaves
                  if not hasattr(cls, "kind")) == []


def test_hot_classes_have_no_instance_dict():
    # The __slots__ contract (docs/performance.md): requests and the
    # kernel's Delay and Event are allocated on every simulated step, so
    # none of them, base or leaf, may give its instances a __dict__.
    classes = set().union(*(_repro_tree(root)
                            for root in (effects.Request, Delay, Event)))
    assert len(classes) >= 19
    assert sorted(cls.__qualname__ for cls in classes
                  if cls.__dictoffset__ != 0) == []


# ---------------------------------------------------------------------------
# the direct dispatcher
# ---------------------------------------------------------------------------


class TestDispatcher:
    def test_store_requests_hit_the_cluster(self, cluster):
        dispatcher = Dispatcher(cluster)
        dispatcher.execute(effects.Put("data", "k", "v"))
        value, version = dispatcher.execute(effects.Get("data", "k"))
        assert value == "v" and version == 1
        values, versions = dispatcher.execute(
            effects.multi_get("data", ["k", "x"])
        )
        assert values == ["v", None] and versions == [1, 0]

    def test_cm_requests_without_cm_raise(self, cluster):
        dispatcher = Dispatcher(cluster)
        with pytest.raises(RuntimeError):
            dispatcher.execute(effects.StartTransaction())

    def test_compute_and_sleep_are_noops(self, cluster):
        dispatcher = Dispatcher(cluster)
        assert dispatcher.execute(effects.Compute(5.0)) is None
        assert dispatcher.execute(effects.Sleep(5.0)) is None


# ---------------------------------------------------------------------------
# compose / interceptor protocol
# ---------------------------------------------------------------------------


class _Recorder(Interceptor):
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def intercept(self, request, ctx, next):
        self.log.append(f"{self.name}:enter")
        result = yield from next(request)
        self.log.append(f"{self.name}:exit")
        return result


class TestCompose:
    def test_empty_chain_is_the_tail_itself(self):
        def tail(request):
            return iter(())

        ctx = DispatchContext()
        assert compose([], tail, ctx) is tail

    def test_chain_runs_outermost_first(self, cluster):
        log = []
        dispatcher = Dispatcher(
            cluster,
            interceptors=[_Recorder("outer", log), _Recorder("inner", log)],
        )
        dispatcher.execute(effects.Put("data", "k", "v"))
        assert log == ["outer:enter", "inner:enter", "inner:exit",
                       "outer:exit"]

    def test_drive_sync_resolves_yields_to_none(self):
        seen = []

        def gen():
            seen.append((yield "anything"))
            return 42

        assert drive_sync(gen()) == 42
        assert seen == [None]


# ---------------------------------------------------------------------------
# run_direct error contract (satellite regression tests)
# ---------------------------------------------------------------------------


class _FlakyCluster:
    """Stub cluster failing the first ``failures`` executes."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def execute(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise NodeUnavailable("injected transient failure")
        return ("ok", self.calls)


class TestRunDirectErrors:
    def test_tell_error_is_thrown_into_the_coroutine(self, cluster):
        events = []

        def proto():
            try:
                yield effects.Get("data", "k")
                events.append("first-ok")
                yield _Boom("data", "k")  # the fault rule targets this class
            except TellError as exc:
                events.append(f"caught:{type(exc).__name__}")
                # protocol-level cleanup runs and can keep issuing requests
                yield effects.Put("data", "cleaned", True)
                return "aborted"
            return "committed"

        class _Boom(effects.Get):
            __slots__ = ()

        fault = FaultInjector(seed=1, rules=[
            FaultRule(op="_Boom", error_rate=1.0),
        ])
        dispatcher = Dispatcher(cluster, interceptors=[fault])
        outcome = effects.run_direct(proto(), dispatcher)
        assert outcome == "aborted"
        assert events == ["first-ok", "caught:NodeUnavailable"]
        assert cluster.execute(effects.Get("data", "cleaned"))[0] is True

    def test_uncaught_tell_error_propagates(self):
        def proto():
            yield effects.Get("data", "k")
            return "done"

        with pytest.raises(NodeUnavailable):
            effects.run_direct(proto(), Dispatcher(_FlakyCluster(99)))

    def test_non_tell_error_closes_the_coroutine(self, cluster):
        cleaned = []

        def proto():
            try:
                yield effects.Put("data", "k", "v")
                yield effects.Get("data", "k")
            finally:
                cleaned.append(True)
            return "done"

        crash = CrashPoint(lambda r: isinstance(r, effects.Get))
        dispatcher = Dispatcher(cluster, interceptors=[crash])
        with pytest.raises(InjectedCrash):
            effects.run_direct(proto(), dispatcher)
        # close() ran the coroutine's finally block instead of abandoning it
        assert cleaned == [True]
        # the crash struck *after* the matched request executed
        assert cluster.execute(effects.Get("data", "k"))[0] == "v"


# ---------------------------------------------------------------------------
# trace interceptor
# ---------------------------------------------------------------------------


def request_count(trace, **labels):
    return trace.registry.histogram("repro_request_latency_us").count(**labels)


def request_errors(trace):
    """Failed requests summed over class and exception type."""
    series = trace.registry.counter("repro_request_errors").series()
    return sum(series.values())


class TestTraceInterceptor:
    def test_counts_bytes_and_round_trips(self, cluster):
        trace = TraceInterceptor()
        dispatcher = Dispatcher(cluster, interceptors=[trace])
        dispatcher.execute(effects.Put("data", "k", "v"))
        dispatcher.execute(effects.Get("data", "k"))
        dispatcher.execute(effects.multi_get("data", ["k", "x"]))
        ops = trace.registry.counter("repro_request_ops")
        size = trace.registry.counter("repro_request_bytes")
        assert request_count(trace, **{"class": "Put"}) == 1
        assert request_count(trace, **{"class": "Get"}) == 1
        assert request_count(trace, **{"class": "Batch"}) == 1
        assert request_errors(trace) == 0  # three successful round trips
        assert ops.value(**{"class": "Batch"}) == 2
        assert size.value(**{"class": "Put"}) > size.value(**{"class": "Get"})

    def test_errors_are_recorded_and_reraised(self, cluster):
        trace = TraceInterceptor()
        fault = FaultInjector(seed=3, rules=[
            FaultRule(op="Get", error_rate=1.0),
        ])
        # trace wraps fault: the trace sees the injected error
        dispatcher = Dispatcher(cluster, interceptors=[trace, fault])
        with pytest.raises(NodeUnavailable):
            dispatcher.execute(effects.Get("data", "k"))
        assert trace.registry.snapshot()["counters"][
            "repro_request_errors{class=Get,error=NodeUnavailable}"] == 1
        # successful round trips are count minus errors
        assert request_count(trace, **{"class": "Get"}) == 1
        assert request_errors(trace) == 1

    def test_registry_snapshot_carries_the_per_class_figures(self, cluster):
        trace = TraceInterceptor()
        dispatcher = Dispatcher(cluster, interceptors=[trace])
        dispatcher.execute(effects.Put("data", "k", "v"))
        snapshot = json.loads(json.dumps(trace.registry.snapshot()))
        assert set(snapshot["histograms"][
            "repro_request_latency_us{class=Put}"]) == {
                "count", "sum", "max", "buckets"}
        assert snapshot["counters"]["repro_request_ops{class=Put}"] == 1
        assert snapshot["counters"]["repro_request_bytes{class=Put}"] > 24


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_transient_errors_are_retried(self):
        flaky = _FlakyCluster(failures=2)
        retry = RetryPolicy(max_attempts=3, backoff_us=10.0)
        dispatcher = Dispatcher(flaky, interceptors=[retry])
        assert dispatcher.execute(effects.Get("data", "k")) == ("ok", 3)
        assert retry.retries == 2

    def test_attempts_are_bounded(self):
        flaky = _FlakyCluster(failures=99)
        retry = RetryPolicy(max_attempts=3, backoff_us=0.0)
        dispatcher = Dispatcher(flaky, interceptors=[retry])
        with pytest.raises(NodeUnavailable):
            dispatcher.execute(effects.Get("data", "k"))
        assert flaky.calls == 3

    def test_retryable_filter_narrows(self):
        flaky = _FlakyCluster(failures=1)
        retry = RetryPolicy(
            max_attempts=3,
            retryable=lambda request, exc: isinstance(request, effects.Get),
        )
        dispatcher = Dispatcher(flaky, interceptors=[retry])
        with pytest.raises(NodeUnavailable):
            dispatcher.execute(effects.Put("data", "k", "v"))

    def test_non_retry_on_errors_pass_through(self, cluster):
        crash = CrashPoint(lambda r: True)
        retry = RetryPolicy(max_attempts=5)
        dispatcher = Dispatcher(cluster, interceptors=[retry, crash])
        with pytest.raises(InjectedCrash):
            dispatcher.execute(effects.Put("data", "k", "v"))
        assert retry.retries == 0


# ---------------------------------------------------------------------------
# fault injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def _inject_pattern(self, seed, n=200):
        cluster = StorageCluster(n_nodes=1)
        fault = FaultInjector(seed=seed, rules=[
            FaultRule(op="Get", space="data", error_rate=0.3),
        ])
        dispatcher = Dispatcher(cluster, interceptors=[fault])
        pattern = []
        for i in range(n):
            try:
                dispatcher.execute(effects.Get("data", i))
                pattern.append(0)
            except NodeUnavailable:
                pattern.append(1)
        return fault, pattern

    def test_same_seed_reproduces_the_same_faults(self):
        fault_a, pattern_a = self._inject_pattern(seed=7)
        fault_b, pattern_b = self._inject_pattern(seed=7)
        assert pattern_a == pattern_b
        assert fault_a.injected_errors == fault_b.injected_errors > 0

    def test_different_seeds_differ(self):
        _f, pattern_a = self._inject_pattern(seed=7)
        _g, pattern_b = self._inject_pattern(seed=8)
        assert pattern_a != pattern_b

    def test_rules_match_space_and_op(self, cluster):
        fault = FaultInjector(seed=1, rules=[
            FaultRule(op="Put", space="data", error_rate=1.0),
        ])
        dispatcher = Dispatcher(cluster, interceptors=[fault])
        # wrong op and wrong space sail through
        dispatcher.execute(effects.Get("data", "k"))
        dispatcher.execute(effects.Put("index", "k", "v"))
        with pytest.raises(NodeUnavailable):
            dispatcher.execute(effects.Put("data", "k", "v"))

    def test_custom_error_type(self, cluster):
        class Transient(TellError):
            pass

        fault = FaultInjector(seed=1, rules=[
            FaultRule(op="Get", error_rate=1.0, error_type=Transient),
        ])
        dispatcher = Dispatcher(cluster, interceptors=[fault])
        with pytest.raises(Transient):
            dispatcher.execute(effects.Get("data", "k"))

    def test_schedule_requires_a_simulator(self, cluster):
        from repro.dispatch import ScheduledFault, kill_storage_node

        fault = FaultInjector(
            seed=1,
            schedule=[ScheduledFault(10.0, kill_storage_node(0))],
        )
        with pytest.raises(ValueError):
            Dispatcher(cluster, interceptors=[fault])

    def test_retry_recovers_injected_transients(self, cluster):
        """Retry + fault injection compose: bounded retry absorbs a
        moderate transient error rate."""
        fault = FaultInjector(seed=5, rules=[
            FaultRule(op="Get", error_rate=0.25),
        ])
        retry = RetryPolicy(max_attempts=8, backoff_us=1.0)
        dispatcher = Dispatcher(
            StorageCluster(n_nodes=1), interceptors=[retry, fault]
        )
        for i in range(100):
            value, _version = dispatcher.execute(effects.Get("data", i))
            assert value is None
        assert retry.retries == fault.injected_errors > 0


# ---------------------------------------------------------------------------
# repr coverage (satellite)
# ---------------------------------------------------------------------------


class TestRequestReprs:
    REQUESTS = [
        (effects.Get("data", 1), "Get('data', 1)"),
        (effects.Put("data", 1, "v"), "Put('data', 1, 'v')"),
        (effects.PutIfVersion("data", 1, "v", 3),
         "PutIfVersion('data', 1, 'v', expected_version=3)"),
        (effects.Delete("data", 1), "Delete('data', 1)"),
        (effects.DeleteIfVersion("data", 1, 2),
         "DeleteIfVersion('data', 1, expected_version=2)"),
        (effects.Increment("data", 1, delta=5),
         "Increment('data', 1, delta=5)"),
        (effects.Scan("data", 1, 9, limit=4), "Scan('data', 1..9, limit=4)"),
        (effects.multi_get("d", [1]), "Batch(get 'd', 1 keys)"),
        (effects.multi_put("d", [1, 2], ["v", "w"], [0, 3]),
         "Batch(put 'd', 2 keys)"),
        (effects.StartTransaction(), "StartTransaction()"),
        (effects.ReportCommitted(7), "ReportCommitted(tid=7)"),
        (effects.ReportAborted(8), "ReportAborted(tid=8)"),
        (effects.ValidateCommit(9, [1, 2], [2], None),
         "ValidateCommit(tid=9, reads=2, writes=1)"),
        (effects.Compute(2.5), "Compute(2.5)"),
        (effects.Sleep(9.0), "Sleep(9.0)"),
    ]

    def test_every_request_class_has_a_useful_repr(self):
        for request, expected in self.REQUESTS:
            assert repr(request) == expected

    def test_all_public_request_classes_covered(self):
        covered = {type(r) for r, _ in self.REQUESTS}
        assert EFFECT_CLASSES - ABSTRACT_EFFECTS <= covered
