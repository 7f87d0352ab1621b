"""Tests for the simulated YCSB deployment."""

import pytest

from repro.workloads.simulated import SimulatedYcsb, TellConfig


def config(**overrides):
    defaults = dict(
        processing_nodes=1, storage_nodes=2, threads_per_pn=6,
        mix="A", duration_us=60_000.0, warmup_us=10_000.0, seed=4,
    )
    defaults.update(overrides)
    return TellConfig(**defaults)


class TestSimulatedYcsb:
    def test_runs_and_commits(self):
        deployment = SimulatedYcsb(config(), record_count=500)
        deployment.load()
        metrics = deployment.run()
        assert metrics.total_committed > 100
        assert set(metrics.committed) <= {"read", "update", "insert",
                                          "scan", "read_modify_write"}

    def test_workload_c_is_conflict_free(self):
        deployment = SimulatedYcsb(config(mix="C"), record_count=500)
        deployment.load()
        metrics = deployment.run()
        assert metrics.total_conflicts == 0

    def test_update_heavy_conflicts_on_hot_keys(self):
        deployment = SimulatedYcsb(
            config(mix="A", threads_per_pn=12), record_count=50,
        )
        deployment.load()
        metrics = deployment.run()
        assert metrics.total_conflicts > 0  # zipfian head contention

    def test_scales_with_processing_nodes(self):
        single = SimulatedYcsb(config(), record_count=5000)
        single.load()
        tps_one = single.run().tps
        quad = SimulatedYcsb(config(processing_nodes=4), record_count=5000)
        quad.load()
        tps_four = quad.run().tps
        assert tps_four > tps_one * 2.2

    def test_observed_run_reports_its_snapshot(self):
        deployment = SimulatedYcsb(config(observability=True),
                                   record_count=500)
        assert deployment.run().obs_snapshot is not None

    def test_sanitized_run_consults_the_log(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        deployment = SimulatedYcsb(config(), record_count=500)
        log = deployment.sanitizer_log
        consulted = []
        monkeypatch.setattr(
            log, "assert_clean", lambda: consulted.append(log.clean)
        )
        assert deployment.run().total_committed > 100
        assert consulted == [True]
        assert sum(log.reconciliations.values()) > 0  # the chain saw traffic

    def test_explicit_sanitizer_chain_sees_traffic(self, monkeypatch):
        # The same run with the chain handed in instead of the flag.
        from repro.san import make_sanitizers

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        log, chain = make_sanitizers()
        deployment = SimulatedYcsb(config(), record_count=500,
                                   interceptors=chain)
        assert deployment.sanitizer_log is None
        assert deployment.interceptors == list(chain)
        assert deployment.run().total_committed > 100
        assert log.clean
        assert sum(log.reconciliations.values()) > 0  # the chain saw traffic

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            SimulatedYcsb(config(mix="standard"))

    def test_quiesce_after_run(self):
        deployment = SimulatedYcsb(config(mix="F"), record_count=500)
        deployment.load()
        deployment.run()
        deployment.quiesce()
        # every version in the store belongs to a completed transaction
        from repro import effects

        manager = deployment.commit_managers[0]
        rows = deployment.cluster.execute(effects.Scan("data", None, None))
        for _key, record, _version in rows:
            for version in record.versions:
                assert manager.completed.contains(version.tid)
