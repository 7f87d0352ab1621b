"""Tests for repro.obs: registry, tracer, exporters, and determinism."""

import json
import pathlib
import re

import pytest

import repro
from repro.dispatch import FaultInjector, FaultRule, TraceInterceptor
from repro.obs import (Observability, obs_enabled, phase_table_rows, to_json,
                       to_prometheus, validate_snapshot)
from repro.obs import cli as obs_cli
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.workloads.simulated import SimulatedTell
from tests.conftest import finished, shared_run, tiny_tell_config

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def tiny_config(**overrides):
    return tiny_tell_config(observability=True, **overrides)


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", "operations")
        counter.inc(node="0")
        counter.inc(2, node="0")
        counter.inc(node="1")
        assert counter.value(node="0") == 3
        assert counter.value(node="1") == 1

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("ops")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_overwrites(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0)
        gauge.set(2.5)
        assert gauge.value() == 2.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_log2_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (1.0, 3.0, 100.0):
            histogram.observe(value)
        snap = registry.snapshot()["histograms"]["lat"]
        assert snap["count"] == 3
        assert snap["sum"] == 104.0
        assert snap["max"] == 100.0
        # 1.0 -> bucket 0, 3.0 -> bucket 2 (<=4), 100.0 -> bucket 7 (<=128)
        assert snap["buckets"] == {"0": 1, "2": 1, "7": 1}

    def test_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"value": 0}
        registry.register_collector(
            lambda reg: reg.gauge("live").set(state["value"]))
        state["value"] = 7
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["live"] == 7.0

    def test_series_keys_are_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(b="2", a="1")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["ops{a=1,b=2}"]


def make_tracer(ticks, **kwargs):
    """A tracer on a counting clock, plus the registry it observes into."""
    clock = iter(ticks)
    registry = MetricsRegistry()
    return Tracer(lambda: float(next(clock)), registry, **kwargs), registry


class TestTracer:
    def test_finished_root_observes_txn_series(self):
        tracer, registry = make_tracer(range(0, 1000, 10))
        root = tracer.start_span("txn")
        root.attrs["txn"] = "new_order"
        child = root.child("read")
        child.finish()
        root.attrs["outcome"] = "committed"
        root.finish()
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["repro_txn_us{txn=new_order}"] == {
            "count": 1, "sum": 30.0, "max": 30.0, "buckets": {"5": 1}}
        phases = {series: cell["sum"]
                  for series, cell in snapshot["histograms"].items()
                  if series.startswith("repro_txn_phase_us")}
        assert phases == {
            "repro_txn_phase_us{phase=read,txn=new_order}": 10.0,
            "repro_txn_phase_us{phase=other,txn=new_order}": 20.0,
        }
        assert snapshot["counters"] == {
            "repro_txn_outcomes{outcome=committed,txn=new_order}": 1.0}

    def test_open_children_closed_at_root_finish(self):
        tracer, _registry = make_tracer(range(0, 1000, 10))
        root = tracer.start_span("txn")
        child = root.child("write")  # never finished explicitly
        root.finish()
        assert child.end_us == root.end_us

    def test_root_cap_drops_raw_spans_not_aggregates(self):
        tracer, registry = make_tracer(range(0, 100000, 1), max_roots=3)
        for _ in range(5):
            tracer.start_span("txn").finish()
        payload = tracer.to_dict()
        assert payload["finished_roots"] == 5
        assert payload["kept"] == 3
        assert payload["dropped"] == 2
        assert registry.histogram("repro_txn_us").count(txn="txn") == 5

    def test_span_ids_are_deterministic(self):
        def make():
            tracer, _registry = make_tracer(range(0, 100, 1))
            for _ in range(3):
                span = tracer.start_span("txn")
                span.child("read").finish()
                span.finish()
            return tracer.to_dict()

        assert make() == make()

    def test_open_root_is_abandoned_not_aggregated(self):
        tracer, registry = make_tracer(range(0, 100, 1))
        tracer.start_span("txn").finish()
        tracer.start_span("txn")  # e.g. StartTransaction raised in begin()
        assert tracer.to_dict()["abandoned"] == 1
        assert registry.histogram("repro_txn_us").count(txn="txn") == 1


class TestExporters:
    def _snapshot(self):
        hub = Observability()
        hub.registry.counter("ops", "operations").inc(5, node="0")
        hub.registry.gauge("depth").set(2.0)
        hub.registry.histogram("lat").observe(3.0)
        span = hub.tracer.start_span("txn")
        span.attrs["outcome"] = "committed"
        span.child("commit").finish()
        span.finish()
        return hub.snapshot()

    def test_snapshot_validates(self):
        assert validate_snapshot(self._snapshot()) == []

    def test_validation_catches_problems(self):
        snapshot = self._snapshot()
        snapshot["schema"] = "bogus/9"
        del snapshot["gauges"]
        problems = validate_snapshot(snapshot)
        assert len(problems) >= 2

    def test_json_round_trip_is_stable(self):
        snapshot = self._snapshot()
        assert json.loads(to_json(snapshot)) == snapshot

    def test_prometheus_text_format(self):
        text = to_prometheus(self._snapshot())
        assert 'ops{node="0"} 5' in text
        assert "# TYPE ops counter" in text
        assert "# TYPE lat histogram" in text
        assert 'le="+Inf"' in text
        assert "lat_count 1" in text

    def test_phase_table_rows(self):
        rows = phase_table_rows(self._snapshot())
        assert len(rows) == 1
        assert rows[0][0] == "txn"
        assert rows[0][1] == 1  # count


class TestEnvFlag:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not obs_enabled()

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not obs_enabled()

    def test_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        assert obs_enabled()


def run_tiny(**overrides):
    return SimulatedTell(tiny_config(**overrides)).run()


@shared_run()
def observed():
    """The seed-5 ``tiny_config`` run, observability on."""
    return finished(SimulatedTell(tiny_config()))


@shared_run()
def wired():
    """A run with everything that exports series attached: a request
    trace over injected errors, so the error counter has a series.
    Returns ``(deployment, trace, snapshot)``."""
    trace = TraceInterceptor()
    faults = FaultInjector(seed=3, rules=[
        FaultRule(op="Get", error_rate=0.01),
    ])
    deployment = SimulatedTell(tiny_config(), interceptors=[trace, faults])
    return deployment, trace, deployment.run().obs_snapshot


#: ``phase_table_rows`` of the ``observed`` run, captured at the commit
#: before the phase table moved onto registry series (PR 15's parent).
GOLDEN_PHASE_TABLE = [
    ["delivery", 15, "1.045", "0.005", "0.181", "-", "0.154", "0.018",
     "0.688"],
    ["new_order", 191, "0.792", "0.005", "0.058", "-", "0.243", "0.014",
     "0.472"],
    ["order_status", 16, "0.202", "0.005", "0.028", "-", "-", "0.005",
     "0.164"],
    ["payment", 182, "0.178", "0.005", "0.022", "-", "0.029", "0.019",
     "0.103"],
    ["stock_level", 15, "2.408", "0.005", "0.162", "-", "-", "0.005",
     "2.236"],
]

#: Every series an obs-enabled deployment can export, by producer.
EXPORTED_SERIES = {
    # collectors (repro.obs.collect)
    "repro_sn_ops", "repro_sn_bytes_used", "repro_sn_alive",
    "repro_replication_copies", "repro_cm_activity", "repro_isolation_mode",
    "repro_fabric_totals", "repro_topology", "repro_topology_masters",
    "repro_pn_txns", "repro_buffer_ops", "repro_buffer_hit_ratio",
    "repro_index_activity",
    # Tracer
    "repro_txn_us", "repro_txn_phase_us", "repro_txn_outcomes",
    # TraceInterceptor
    "repro_request_latency_us", "repro_request_ops", "repro_request_bytes",
    "repro_request_errors",
}


def series_names(snapshot):
    return {series.partition("{")[0]
            for section in ("counters", "gauges", "histograms")
            for series in snapshot[section]}


class TestSimulatedObservability:
    def test_snapshot_emitted_and_valid(self, observed):
        snapshot = observed.metrics.obs_snapshot
        assert snapshot is not None
        assert validate_snapshot(snapshot) == []
        assert snapshot["meta"]["clock"] == "sim"
        assert "phases" not in snapshot  # repro-obs/1 section, now series

    def test_phase_table_matches_golden(self, observed):
        assert phase_table_rows(observed.metrics.obs_snapshot) \
            == GOLDEN_PHASE_TABLE

    def test_transactions_in_flight_at_run_end_are_abandoned(self, observed):
        spans = observed.metrics.obs_snapshot["spans"]
        assert spans["finished_roots"] == 419
        # one open root per terminal: the run end cut its transaction off
        assert spans["abandoned"] == 4

    def test_identical_snapshots_across_same_seed_runs(self, observed):
        assert json.dumps(observed.metrics.obs_snapshot, sort_keys=True) \
            == json.dumps(run_tiny().obs_snapshot, sort_keys=True)

    def test_digest_unchanged_by_observability(self, observed, tiny_run):
        # tiny_run is this run with observability off.
        without = tiny_run.metrics
        assert without.obs_snapshot is None
        assert observed.metrics.digest() == without.digest()

    def test_disabled_run_has_no_tracer_attached(self, tiny_run):
        assert tiny_run.obs is None
        for pn, _pool, _cm, _indexes in tiny_run._pn_handles:
            assert pn.obs is None

    def test_pn_txn_outcomes_are_counted_under_simulation(self):
        # PnStats is bumped where a transaction reaches COMMITTED, so the
        # gauge may lead TxnMetrics by the transactions that committed
        # just before the run ended without being recorded: at most one
        # per terminal (tiny_config: 1 PN x 4 threads).
        metrics = run_tiny(warmup_us=0.0)
        committed = sum(
            value
            for series, value in metrics.obs_snapshot["gauges"].items()
            if series.startswith("repro_pn_txns{")
            and "outcome=committed" in series)
        assert committed > 0
        assert 0 <= committed - metrics.total_committed <= 4

    def test_every_producer_appears_in_the_snapshot(self, wired):
        _deployment, _trace, snapshot = wired
        assert validate_snapshot(snapshot) == []
        assert series_names(snapshot) == EXPORTED_SERIES

    def test_docs_list_exactly_the_exported_series(self):
        with open(DOCS / "observability.md", encoding="utf-8") as handle:
            documented = set(re.findall(r"\brepro_[a-z0-9_]+", handle.read()))
        assert documented == EXPORTED_SERIES

    def test_traced_requests_land_in_the_hub_registry(self, wired):
        deployment, trace, snapshot = wired
        assert trace.registry is deployment.obs.registry
        # Every figure the old per-class trace document carried:
        latency = snapshot["histograms"]["repro_request_latency_us{class=Get}"]
        assert latency["count"] > 1_000
        assert latency["sum"] > 0.0 and latency["max"] > 0.0
        assert sum(latency["buckets"].values()) == latency["count"]
        counters = snapshot["counters"]
        assert counters["repro_request_ops{class=Batch}"] > 0
        assert counters["repro_request_bytes{class=Get}"] > 0
        errors = counters[
            "repro_request_errors{class=Get,error=NodeUnavailable}"]
        assert 0 < errors < latency["count"]


class TestObsCli:
    """``repro-obs render`` / ``validate`` on a snapshot file."""

    @pytest.fixture
    def snapshot_file(self, observed, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(observed.metrics.obs_snapshot),
                        encoding="utf-8")
        return str(path)

    def test_validate_and_render_a_valid_snapshot(self, snapshot_file,
                                                  capsys):
        assert obs_cli.main(["validate", snapshot_file]) == 0
        assert obs_cli.main(["render", snapshot_file]) == 0
        assert "Per-phase latency breakdown" in capsys.readouterr().out
        assert obs_cli.main(["render", snapshot_file, "--prometheus"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_wrong_schema_is_refused(self, observed, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(observed.metrics.obs_snapshot,
                                        schema="repro-obs/1")),
                        encoding="utf-8")
        assert obs_cli.main(["validate", str(path)]) == 1
        assert obs_cli.main(["render", str(path)]) == 2
        assert "invalid snapshot" in capsys.readouterr().err


class TestEmbeddedObservability:
    def test_failed_over_commit_manager_needs_no_reregistration(self):
        def starts_served(db):
            return db.obs.snapshot()["gauges"][
                "repro_cm_activity{cm=0,what=starts_served}"]

        with repro.connect(observability=True) as db:
            session = db.session()
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            for key in range(3):
                session.execute("INSERT INTO t VALUES (?, 1)", [key])
            before = starts_served(db)
            replacement = db.crash_commit_manager(0)
            session.execute("UPDATE t SET v = 2 WHERE id = 1")
            assert before == 3 and replacement.starts_served == 1
            assert starts_served(db) == replacement.starts_served
            assert len(db.obs.registry._collectors) == 1
