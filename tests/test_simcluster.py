"""Tests for the simulated deployment and its cost model."""

import dataclasses

import pytest

import repro.obs
from repro import effects
from repro.core.spaces import DATA_SPACE
from repro.errors import InvalidState
from repro.obs import validate_snapshot
from repro.runtime import fabric as fabric_module
from repro.runtime.config import SimulationConfig
from repro.runtime.deployment import SimulatedDeployment
from repro.runtime.fabric import CorePool
from repro.runtime.metrics import TxnMetrics
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import tiny_tell_config as tiny_config


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(commit_managers=0),
        dict(buffering="nope"),
        dict(replication_factor=4, storage_nodes=3),
        dict(isolation="x"),
    ])
    def test_bad_shape_fails_at_construction(self, bad):
        # Same declaration, same checks as DatabaseConfig: nothing is
        # built, let alone loaded, from a config that cannot run.
        with pytest.raises(InvalidState):
            TellConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(network="carrier-pigeon"),
        dict(processing_nodes=0),
        dict(threads_per_pn=0),
        dict(duration_us=0.0),
        dict(duration_us=-5.0),
        dict(warmup_us=-1.0),
    ])
    def test_bad_run_field_fails_at_construction(self, bad):
        # An unknown network would fail only when the fabric is built,
        # and zero PNs or threads would run nothing without a word.
        with pytest.raises(InvalidState):
            SimulationConfig(**bad)


class TestConfigSplit:
    def test_tell_config_adds_only_the_workload(self):
        fields = {field.name for field in dataclasses.fields(TellConfig)}
        runtime = {field.name for field in dataclasses.fields(SimulationConfig)}
        assert fields - runtime == {"cpu_per_row_us", "scale", "mix"}
        assert {"txn_overhead_us"} <= runtime

    def test_total_cores_counts_every_node(self):
        config = SimulationConfig(processing_nodes=2, storage_nodes=3,
                                  commit_managers=2)
        assert config.total_cores == 2 * 4 + 3 * 4 + 2 * 2 + 2


class _Noop(SimulatedDeployment):
    """The smallest workload: every transaction is begin + commit."""

    def load(self):
        self._populated = True
        return {}

    def _obs_label(self):
        return "noop"

    def _transactions(self, indexes, seed):
        def body(txn):
            return
            yield

        while True:
            yield "noop", body


class TestPlainSimulationConfig:
    def test_closed_loop_runs_without_a_workload_config(self):
        """The runtime reads only ``SimulationConfig`` fields: a plain one
        drives a closed loop, and its per-transaction overhead is what
        separates two commits of one terminal."""
        config = SimulationConfig(processing_nodes=1, storage_nodes=1,
                                  threads_per_pn=1, duration_us=20_000.0,
                                  warmup_us=0.0)
        metrics = _Noop(config, TxnMetrics()).run()
        assert metrics.total_committed > 0
        assert metrics.total_conflicts == 0
        assert min(metrics.latencies_us["noop"]) >= config.txn_overhead_us


class TestProcessingNodeById:
    """A processing node is its id: the fabric owns its core pool and
    routes its commit-manager requests."""

    def test_patched_pn_cores_reach_every_pn_pool(self, monkeypatch,
                                                  tiny_run):
        monkeypatch.setattr(fabric_module, "PN_CORES", 1)
        deployment = SimulatedTell(tiny_config())
        assert [len(pool._free) for pool in deployment.fabric.pn_pools] == [1]
        # Four terminals now queue for one core: a different run.
        assert deployment.run().digest() != tiny_run.metrics.digest()

    @pytest.mark.parametrize("pn_id", [0, 1])
    def test_spawned_script_is_attributed_to_its_pn(self, pn_id):
        key = 7
        deployment = _Noop(SimulationConfig(processing_nodes=2,
                                            storage_nodes=1,
                                            commit_managers=2),
                           TxnMetrics())
        pn, _indexes = deployment.make_pn(pn_id)
        begun = []

        def script():
            """Insert a row, apply it, then stall mid-commit."""
            txn = yield from pn.begin()
            begun.append(txn.tid)
            txn.insert(key, ("stolen",))
            commit = txn.commit()
            request = result = None
            while not isinstance(request, effects.Batch):
                request = commit.send(result)
                result = yield request
            yield effects.Sleep(1_000.0)

        deployment.spawn(pn_id, script(), "stalled")
        deployment.sim.run(until=500.0)
        managers = deployment.commit_managers
        serving = managers[deployment.cm_index_of(pn_id)]
        assert serving is managers[pn_id]
        assert serving.active_tids_of(pn_id) == begun
        assert managers[1 - pn_id].active_tids_of(pn_id) == []
        assert deployment.cluster.execute(
            effects.Get(DATA_SPACE, key))[0] is not None
        assert deployment.recover_pn_direct(pn_id) == begun
        assert serving.active_tids_of(pn_id) == []
        assert deployment.cluster.execute(
            effects.Get(DATA_SPACE, key))[0] is None


class TestObsSink:
    def test_a_run_emits_its_snapshot_once(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "_SINK", None)
        sink = repro.obs.install_sink()
        deployment = _Noop(SimulationConfig(processing_nodes=1,
                                            storage_nodes=1,
                                            threads_per_pn=1,
                                            duration_us=2_000.0,
                                            warmup_us=0.0,
                                            observability=True),
                           TxnMetrics())
        deployment.run()
        ((label, snapshot),) = sink
        assert label == deployment._obs_label()
        assert snapshot is deployment.metrics.obs_snapshot
        assert validate_snapshot(snapshot) == []


class TestCorePool:
    def test_single_core_serializes(self):
        pool = CorePool(1)
        assert pool.reserve(0.0, 10.0) == 10.0
        assert pool.reserve(0.0, 10.0) == 20.0

    def test_multi_core_parallel(self):
        pool = CorePool(2)
        assert pool.reserve(0.0, 10.0) == 10.0
        assert pool.reserve(0.0, 10.0) == 10.0
        assert pool.reserve(0.0, 10.0) == 20.0

    def test_idle_gap(self):
        pool = CorePool(1)
        pool.reserve(0.0, 5.0)
        assert pool.reserve(100.0, 5.0) == 105.0

    def test_earliest_peeks(self):
        pool = CorePool(1)
        pool.reserve(0.0, 5.0)
        assert pool.earliest(0.0) == 5.0
        assert pool.earliest(10.0) == 10.0


class TestSimulatedRun:
    def test_small_run_commits_transactions(self, tiny_run):
        metrics = tiny_run.metrics
        assert metrics.total_committed > 20
        assert metrics.tpmc > 0
        assert metrics.measured_time_us == 50_000.0

    def test_deterministic_with_same_seed(self, tiny_run):
        runs = []
        for metrics in (tiny_run.metrics,
                        SimulatedTell(tiny_config()).run()):
            runs.append(
                (metrics.total_committed, metrics.total_conflicts,
                 dict(metrics.committed))
            )
        assert runs[0] == runs[1]

    def test_different_seed_different_run(self, tiny_run, tiny_run_seed6):
        assert tiny_run.metrics.total_committed \
            != tiny_run_seed6.metrics.total_committed

    def test_more_pns_more_throughput(self):
        # 16 warehouses keep the 16 terminals of the 4-PN run uncontended;
        # tiny rows keep the two loads cheap.
        one = SimulatedTell(tiny_config(scale=TpccScale.tiny(16)))
        tpmc_one = one.run().tpmc
        four = SimulatedTell(
            tiny_config(processing_nodes=4, scale=TpccScale.tiny(16))
        )
        tpmc_four = four.run().tpmc
        assert tpmc_four > tpmc_one * 1.5

    def test_replication_costs_throughput_under_writes(self):
        rf1 = SimulatedTell(tiny_config(storage_nodes=3))
        tpmc_rf1 = rf1.run().tpmc
        rf3 = SimulatedTell(
            tiny_config(storage_nodes=3, replication_factor=3)
        )
        tpmc_rf3 = rf3.run().tpmc
        assert tpmc_rf3 < tpmc_rf1

    def test_infiniband_beats_ethernet(self, tiny_run):
        tpmc_ib = tiny_run.metrics.tpmc
        eth = SimulatedTell(tiny_config(network="ethernet-10g"))
        tpmc_eth = eth.run().tpmc
        assert tpmc_ib > tpmc_eth * 2

    def test_latencies_recorded(self, tiny_run):
        stats = tiny_run.metrics.latency("new_order")
        assert stats.count > 0
        assert 0 < stats.mean_us < 1e6

    def test_replicas_identical_after_run(self):
        config = tiny_config(storage_nodes=3, replication_factor=2)
        deployment = SimulatedTell(config)
        deployment.run()
        deployment.quiesce()
        cluster = deployment.cluster
        for pid in range(cluster.partitioner.n_partitions):
            replicas = cluster.partition_map.replicas_of(pid)
            reference = None
            for node_id in replicas:
                cells = cluster.nodes[node_id].partition(pid).spaces.get("data", {})
                snapshot = {k: (c.value.version_numbers(), c.version)
                            for k, c in cells.items()}
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference

    def test_quiesce_idempotent(self):
        deployment = SimulatedTell(tiny_config())
        deployment.run()
        deployment.quiesce()
        assert deployment.quiesce() == 0

    def test_commit_manager_failover_under_simulation(self):
        # Deployment.crash_commit_manager is every deployment's, not only
        # the embedded Database's: in-flight work must drain first, and
        # the fabric addresses managers by index, so it sees the
        # replacement without rewiring.
        deployment = SimulatedTell(tiny_config())
        deployment.run()
        failed = deployment.commit_managers[0]
        with pytest.raises(InvalidState):
            deployment.crash_commit_manager(0)
        deployment.quiesce()
        replacement = deployment.crash_commit_manager(0)
        assert replacement is not failed
        assert deployment.fabric.commit_managers[0] is replacement
        assert replacement.start(0).tid > failed.last_assigned_tid

    def test_batching_reduces_messages(self, tiny_run):
        batched = tiny_run
        unbatched = SimulatedTell(tiny_config(batching=False))
        unbatched.run()
        per_txn_batched = (
            batched.fabric.stats.messages
            / max(1, batched.metrics.total_finished)
        )
        per_txn_unbatched = (
            unbatched.fabric.stats.messages
            / max(1, unbatched.metrics.total_finished)
        )
        assert per_txn_batched < per_txn_unbatched

    def test_commit_managers_scale_without_breaking(self):
        config = tiny_config(commit_managers=2, processing_nodes=2)
        deployment = SimulatedTell(config)
        metrics = deployment.run()
        assert metrics.total_committed > 20
        deployment.quiesce()
        # tids unique across managers: every version distinct
        seen = set()
        rows = deployment.cluster.execute(effects.Scan("txlog", None, None))
        for key, _entry, _version in rows:
            assert key not in seen
            seen.add(key)
