"""Tests for the ``repro.san`` sanitizer + schedule-exploration package.

Four layers:

* the kernel's :class:`~repro.sim.kernel.SchedulerPolicy` hook -- the
  ``None`` path keeps the historical FIFO order, a policy can reorder
  same-time events, and a recorded trace replays bit-for-bit;
* the scenarios run *clean* against the healthy tree (the sanitizers
  must not cry wolf), with write-skew surfaced as a report;
* attaching the sanitizer chain leaves a TPC-C run's digest and obs
  snapshot byte-identical: the sanitizers only observe;
* seeded mutations -- a broken store-conditional, a GC that ignores the
  lowest active version, and a broken visibility rule -- must each trip
  their sanitizer under the explorer, and every failing schedule must
  replay deterministically (plus minimize to a failing prefix).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.effects import run_direct
from repro.core.record import VersionedRecord
from repro.dispatch import DispatchContext, compose, drive_sync
from repro.dispatch.interceptors import TraceInterceptor
from repro.errors import KeyNotFound
from repro.san import make_sanitizers
from repro.san.explorer import (
    PCTPolicy,
    RandomJitterPolicy,
    ReplayPolicy,
    ScheduleExplorer,
    ScheduleTrace,
)
from repro.san.scenarios import SCENARIOS, gc_pressure, lost_update, write_skew
from repro.sim.kernel import Delay, SchedulerPolicy, Simulator
from repro.store.cell import Cell, approx_size
from repro.store.node import StorageNode
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from repro import effects


def log_digest(log):
    """sha256 of everything a ViolationLog recorded, in order: each
    violation's and report's code and message, and the reconciliation
    counts."""
    return hashlib.sha256(json.dumps({
        "violations": [[v.code, v.message] for v in log.violations],
        "reports": [[r.code, r.message] for r in log.reports],
        "reconciliations": sorted(log.reconciliations.items()),
    }, sort_keys=True).encode()).hexdigest()


# -- kernel scheduler-policy hook ----------------------------------------


def _ordering_program(sim, order, n=4):
    def proc(tag):
        yield Delay(10.0)  # all resumes land on the same timestamp
        order.append(tag)

    for i in range(n):
        sim.spawn(proc(i), name=f"p{i}")


class TestSchedulerPolicy:
    def test_none_policy_is_fifo(self):
        order = []
        sim = Simulator()
        _ordering_program(sim, order)
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_policy_can_reorder_same_time_events(self):
        class HighestNameFirst(SchedulerPolicy):
            """Same-time events fire in descending process-name order."""

            def __init__(self):
                self.counter = 0

            def on_schedule(self, when, now, process):
                self.counter += 1
                rank = 99 if process is None else 9 - int(process.name[1:])
                return when, (rank << 32) | self.counter

        order = []
        sim = Simulator(policy=HighestNameFirst())
        _ordering_program(sim, order)
        sim.run()
        assert order == [3, 2, 1, 0]

    def test_policy_never_fires_events_in_the_past(self):
        fired_at = []
        sim = Simulator(policy=RandomJitterPolicy(seed=5, time_jitter=3.0))

        def proc():
            for _ in range(5):
                yield Delay(1.0)
                fired_at.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert fired_at == sorted(fired_at)
        assert all(t >= 1.0 for t in fired_at)

    def test_random_policies_differ_and_replay_matches(self):
        def run(policy):
            order = []
            sim = Simulator(policy=policy)
            _ordering_program(sim, order, n=6)
            sim.run()
            return order

        recording = RandomJitterPolicy(seed=3)
        shuffled = run(recording)
        assert sorted(shuffled) == list(range(6))
        assert run(ReplayPolicy(recording.trace)) == shuffled

        pct = PCTPolicy(seed=3)
        prioritized = run(pct)
        assert sorted(prioritized) == list(range(6))
        assert run(ReplayPolicy(pct.trace)) == prioritized

    def test_replay_past_trace_end_is_deterministic(self):
        recording = RandomJitterPolicy(seed=9)
        order = []
        sim = Simulator(policy=recording)
        _ordering_program(sim, order, n=4)
        sim.run()

        def run_prefix(length):
            tail_order = []
            sim = Simulator(policy=ReplayPolicy(recording.trace.prefix(length)))
            _ordering_program(sim, tail_order, n=4)
            sim.run()
            return tail_order

        assert run_prefix(2) == run_prefix(2)

    def test_trace_round_trips_through_dict(self):
        trace = ScheduleTrace(7, "random")
        trace.record(1.0, 42)
        trace.record(2.5, 99)
        clone = ScheduleTrace.from_dict(trace.to_dict())
        assert clone.decisions == trace.decisions
        assert clone.seed == 7


# -- healthy tree: scenarios stay clean ----------------------------------


class TestHealthyScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_baseline_schedule_is_clean(self, name):
        log = SCENARIOS[name](None)
        assert log.clean, log.summary()

    def test_write_skew_is_reported_not_failed(self):
        log = write_skew(None)
        assert log.clean
        assert any(r.code == "SSI-WRITE-SKEW" for r in log.reports)

    def test_explorer_finds_no_failures_on_healthy_tree(self):
        explorer = ScheduleExplorer(lost_update, schedules=4, seed=1)
        assert explorer.run() == []
        assert explorer.runs == 4


# -- the sanitizers only observe -----------------------------------------


#: log_digest of the sanitized run, per isolation mode.
SANITIZED_RUN_LOG = {
    "si": "c6f18d0693817ab9b6d7a6ecb97c520c9694901c85daf667fe7411343be041ce",
    "ssi": "bc14e4402448ac09424d6762059a8dd1a8038d5c0b861999ceef79970950acd5",
}


@pytest.mark.parametrize("mode", ["si", "ssi"])
def test_sanitizers_leave_the_run_unchanged(mode):
    # A sanitizer that writes to the protocol state it watches, or
    # records into the obs layer it cross-checks, moves the digest or the
    # obs snapshot of the run it is attached to.  The log digest pins
    # what the sanitizers saw: every reconciliation they counted.
    config = TellConfig(
        processing_nodes=2, storage_nodes=3, threads_per_pn=4,
        scale=TpccScale.tiny(2), duration_us=20_000.0, warmup_us=5_000.0,
        seed=1, observability=True, isolation=mode,
    )
    bare = SimulatedTell(config).run()
    log, chain = make_sanitizers(isolation=mode)
    sanitized = SimulatedTell(config, interceptors=chain).run()
    assert sum(bare.committed.values()) > 0
    assert log_digest(log) == SANITIZED_RUN_LOG[mode]
    assert sanitized.digest() == bare.digest()
    assert json.dumps(sanitized.obs_snapshot, sort_keys=True) == \
        json.dumps(bare.obs_snapshot, sort_keys=True)


class _PassThroughFifo(SchedulerPolicy):
    """Keeps every decision as the kernel would make it without a
    policy: the requested time, and a counter for the tie-break."""

    def __init__(self):
        self.counter = 0

    def on_schedule(self, when, now, process):
        self.counter += 1
        return when, self.counter


def test_policy_hook_preserves_production_order():
    # The explorer perturbs the production event loop through
    # ``on_schedule``; a policy that perturbs nothing must give back the
    # policy-free run exactly, or an explored schedule says nothing
    # about the runs the pinned digests come from.
    config = TellConfig(
        processing_nodes=2, storage_nodes=3, threads_per_pn=4,
        scale=TpccScale.tiny(2), duration_us=20_000.0, warmup_us=5_000.0,
        seed=1, isolation="si",
    )

    def run(policy):
        log, chain = make_sanitizers(isolation="si")
        deployment = SimulatedTell(config, interceptors=chain, policy=policy)
        metrics = deployment.run()
        return metrics.digest(), deployment.sim.events_processed, \
            log_digest(log)

    policy = _PassThroughFifo()
    production = run(None)
    assert run(policy) == production
    assert policy.counter >= production[1]


# -- seeded mutations: each must trip its sanitizer ----------------------


def _broken_put_if_version(self, partition_id, space, key, value,
                           expected_version):
    """do_put_if_version with the version check deleted: last writer
    wins unconditionally, the classic lost-update bug."""
    self._check_alive()
    store = self.partition(partition_id)
    cells = store.space(space)
    cell = cells.get(key)
    if cell is None:
        self._charge(store, approx_size(value) + approx_size(key))
        cells[key] = Cell(value, 1)
        store.invalidate_scan_cache(space)
        return True, 1
    self._charge(store, approx_size(value) - approx_size(cell.value))
    cell = cells[key] = Cell(value, cell.version + 1)
    return True, cell.version


def _broken_collectable_versions(self, lav):
    """collectable_versions that ignores the lowest active version:
    prunes every version but the newest, yanking data from under open
    snapshots."""
    candidates = [v.tid for v in self.versions]
    if len(candidates) <= 1:
        return []
    newest = max(candidates)
    return [tid for tid in candidates if tid != newest]


def _broken_latest_visible(self, snapshot):
    """latest_visible that returns the newest version regardless of the
    snapshot: dirty reads of concurrent committers."""
    return self.versions[0] if self.versions else None


def _broken_visible_index(self, snapshot):
    """The same dirty-read bug planted in the one visibility scan, which
    is what every production read runs."""
    return 0 if self.tids else -1


def _explore_with_replay(scenario, schedules=2):
    """Run the explorer, assert it found failures, and check every
    failing trace replays to (at least) an overlapping violation set."""
    explorer = ScheduleExplorer(scenario, schedules=schedules, seed=0)
    failures = explorer.run()
    assert failures, "mutation was not detected by any explored schedule"
    for failure in failures:
        replayed = explorer.replay(failure)
        assert not replayed.clean
        assert set(failure.codes) & set(replayed.codes()), (
            f"replay of {failure!r} lost the violation: "
            f"{failure.codes} vs {replayed.codes()}"
        )
    return explorer, failures


#: log_digest of each mutation's FIFO baseline scenario.  Which check
#: fires, in which order and how often is part of the result: a GC check
#: run against the shadow after the write was folded in still reports
#: once, where it should report twelve times.
MUTATION_LOG = {
    "store_conditional":
        "34315bcc02425143b894ed8357b3b8ae9aac793e9db4700750ad2b6fde1deaa1",
    "gc": "30bf2eefb10c8b65e380a2768d727c7c924d0b2a5600568af55d3fe3e83d263b",
    "visibility":
        "05ba4aea9ba533d636f2609c2b710de338bf2915c44f651932d1303923de2d00",
}


class TestSeededMutations:
    def test_broken_store_conditional_trips_si_sanitizer(self, monkeypatch):
        monkeypatch.setattr(
            StorageNode, "do_put_if_version", _broken_put_if_version
        )
        baseline = lost_update(None)
        assert not baseline.clean
        assert set(baseline.codes()) & {
            "SI-LOST-UPDATE", "SI-STALE-SC", "SCN-COUNTER"
        }
        assert log_digest(baseline) == MUTATION_LOG["store_conditional"]
        explorer, failures = _explore_with_replay(lost_update)
        # The shortest failing prefix must itself still fail.
        minimal = explorer.minimize(failures[0])
        assert len(minimal) <= len(failures[0].trace)
        assert not explorer.scenario(ReplayPolicy(minimal)).clean

    def test_broken_gc_trips_gc_sanitizer(self, monkeypatch):
        monkeypatch.setattr(
            VersionedRecord, "collectable_versions",
            _broken_collectable_versions,
        )
        baseline = gc_pressure(None)
        assert not baseline.clean
        assert set(baseline.codes()) & {
            "GC-ABOVE-LAV", "GC-LIVE-SNAPSHOT", "SCN-SNAPSHOT-LOST"
        }
        assert log_digest(baseline) == MUTATION_LOG["gc"]
        _explore_with_replay(gc_pressure)

    def test_broken_visibility_trips_read_check(self, monkeypatch):
        monkeypatch.setattr(
            VersionedRecord, "latest_visible", _broken_latest_visible
        )
        baseline = gc_pressure(None)
        assert not baseline.clean
        assert "SI-READ" in baseline.codes()
        assert log_digest(baseline) == MUTATION_LOG["visibility"]
        _explore_with_replay(gc_pressure)

    def test_broken_visibility_scan_trips_read_check(
            self, monkeypatch, cluster, dispatcher, pn):
        """The checker checks the function the read path runs: a mutated
        ``visible_index`` both changes what a transaction reads and is
        reported.  (The scenario stayed clean while ``latest_visible``
        was a separate copy of the scan that only the sanitizer called.)"""
        monkeypatch.setattr(
            VersionedRecord, "visible_index", _broken_visible_index
        )
        key = (7, 1)
        seed = run_direct(pn.begin(), dispatcher)
        seed.insert(key, ("old",))
        run_direct(seed.commit(), dispatcher)
        reader = run_direct(pn.begin(), dispatcher)
        writer = run_direct(pn.begin(), dispatcher)
        run_direct(writer.update(key, ("dirty",)), dispatcher)
        run_direct(writer.commit(), dispatcher)
        assert run_direct(reader.read(key), dispatcher) == ("dirty",)

        baseline = gc_pressure(None)
        assert not baseline.clean
        assert "SI-READ" in baseline.codes()
        assert log_digest(baseline) == MUTATION_LOG["visibility"]
        _explore_with_replay(gc_pressure)


# -- TraceInterceptor error path (regression) ----------------------------


class TestTraceErrorPath:
    def test_errored_requests_still_counted(self):
        interceptor = TraceInterceptor()
        ctx = DispatchContext(pn_id=0)

        def tail(request):
            raise KeyNotFound(request.key)
            yield  # pragma: no cover - makes tail a generator function

        chain = compose([interceptor], tail, ctx)
        with pytest.raises(KeyNotFound):
            drive_sync(chain(effects.Get("data", 7)))

        snapshot = interceptor.registry.snapshot()
        # failed requests reconcile with the shadow history
        assert snapshot["histograms"][
            "repro_request_latency_us{class=Get}"]["count"] == 1
        assert snapshot["counters"]["repro_request_bytes{class=Get}"] > 0
        # successful round trips are count minus errors: 1 - 1 == 0
        assert snapshot["counters"][
            "repro_request_errors{class=Get,error=KeyNotFound}"] == 1

    def test_success_path_unchanged(self):
        interceptor = TraceInterceptor()
        ctx = DispatchContext(pn_id=0)

        def tail(request):
            return ((1,), 1)
            yield  # pragma: no cover

        chain = compose([interceptor], tail, ctx)
        assert drive_sync(chain(effects.Get("data", 7))) == ((1,), 1)
        snapshot = interceptor.registry.snapshot()
        assert snapshot["histograms"][
            "repro_request_latency_us{class=Get}"]["count"] == 1
        assert snapshot["counters"].keys() == {
            "repro_request_ops{class=Get}", "repro_request_bytes{class=Get}"}
