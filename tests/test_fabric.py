"""Precise timing tests for the simulation fabric's cost model."""

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.net.profiles import INFINIBAND_QDR
from repro.runtime.fabric import (
    CM_MESSAGE_BYTES,
    SN_SERVICE_CM_US,
    CorePool,
    SimFabric,
)
from repro.sim.kernel import Simulator
from repro.store.cluster import StorageCluster
from repro.workloads.simulated import TellConfig


@pytest.fixture
def fabric_env():
    config = TellConfig(storage_nodes=2, replication_factor=1,
                        partitions_per_node=4)
    sim = Simulator()
    cluster = StorageCluster(
        n_nodes=2, replication_factor=1, partitions_per_node=4
    )
    managers = [CommitManager(0, cluster.execute)]
    fabric = SimFabric(sim, cluster, managers, config)
    return sim, cluster, fabric


def run_request(sim, fabric, request, pn_pool=None):
    pool = pn_pool if pn_pool is not None else CorePool(4)
    holder = {}

    def proc():
        value = yield from fabric.perform(pool, 0, request)
        holder["value"] = value
        holder["finished_at"] = sim.now

    process = sim.spawn(proc())
    sim.run_until_complete(process)
    return holder


class TestStorageTiming:
    def test_get_round_trip_in_microseconds(self, fabric_env):
        sim, cluster, fabric = fabric_env
        cluster.execute(effects.Put("data", "k", "v"))
        holder = run_request(sim, fabric, effects.Get("data", "k"))
        assert holder["value"] == ("v", 1)
        # RTT = 2 x one_way + read service; far under a millisecond on IB.
        assert 4.0 < holder["finished_at"] < 25.0

    def test_batch_to_one_node_is_one_round_trip(self, fabric_env):
        sim, cluster, fabric = fabric_env
        # Find several keys living on the same storage node.
        keys = []
        probe = 0
        target = None
        while len(keys) < 5:
            _pid, node_id = cluster.routing(effects.Get("data", probe))
            if target is None:
                target = node_id
            if node_id == target:
                keys.append(probe)
            probe += 1
        single = run_request(sim, fabric, effects.Get("data", keys[0]))
        t_single = single["finished_at"] - 0.0
        sim2, cluster2, fabric2 = (
            Simulator(),
            StorageCluster(n_nodes=2, replication_factor=1, partitions_per_node=4),
            None,
        )
        config = TellConfig(storage_nodes=2, replication_factor=1,
                            partitions_per_node=4)
        fabric2 = SimFabric(sim2, cluster2,
                            [CommitManager(0, cluster2.execute)], config)
        batch = run_request(sim2, fabric2, effects.multi_get("data", keys))
        # 5 ops in one message cost scarcely more than 1 op.
        assert batch["finished_at"] < t_single * 2.5
        assert fabric2.stats.messages == 1
        assert fabric2.stats.store_ops == 5

    def test_mutation_happens_at_service_time(self, fabric_env):
        """State changes are not visible before the request is serviced."""
        sim, cluster, fabric = fabric_env

        observed = {}

        def writer():
            yield from fabric.perform(CorePool(4), 0, effects.Put("data", "k", "v"))

        def early_peek():
            from repro.sim.kernel import Delay

            yield Delay(0.5)  # before the one-way latency has elapsed
            value, _ = cluster.execute(effects.Get("data", "k"))
            observed["early"] = value

        sim.spawn(writer())
        sim.spawn(early_peek())
        sim.run()
        assert observed["early"] is None
        assert cluster.execute(effects.Get("data", "k")) == ("v", 1)

    def test_queueing_at_saturated_node(self, fabric_env):
        """Concurrent requests to one node queue behind its core pool."""
        sim, cluster, fabric = fabric_env
        finish_times = []

        def client(key):
            def proc():
                yield from fabric.perform(
                    CorePool(4), 0, effects.Put("data", key, "x" * 2000)
                )
                finish_times.append(sim.now)

            return proc()

        # Many large writes to the same key -> same partition/node.
        for i in range(50):
            sim.spawn(client("hot"))
        sim.run()
        assert len(finish_times) == 50
        # The last finisher waited behind the others (service accumulates).
        assert max(finish_times) > min(finish_times) * 3

    def test_replication_extends_write_latency(self):
        config_rf1 = TellConfig(storage_nodes=3, replication_factor=1)
        config_rf3 = TellConfig(storage_nodes=3, replication_factor=3)
        times = {}
        for config in (config_rf1, config_rf3):
            sim = Simulator()
            cluster = StorageCluster(
                n_nodes=3, replication_factor=config.replication_factor
            )
            fabric = SimFabric(sim, cluster,
                               [CommitManager(0, cluster.execute)], config)
            holder = run_request(sim, fabric, effects.Put("data", "k", "v"))
            times[config.replication_factor] = holder["finished_at"]
        assert times[3] > times[1] + 5.0

    def test_scan_visits_every_master(self, fabric_env):
        sim, cluster, fabric = fabric_env
        for i in range(20):
            cluster.execute(effects.Put("data", i, i))
        before = fabric.stats.messages
        holder = run_request(sim, fabric, effects.Scan("data", None, None))
        assert len(holder["value"]) == 20
        assert fabric.stats.messages - before == len(cluster.nodes)


class TestCmTiming:
    def test_start_costs_one_round_trip(self, fabric_env):
        sim, cluster, fabric = fabric_env
        holder = run_request(sim, fabric, effects.StartTransaction())
        start = holder["value"]
        assert start.tid >= 1
        minimum = 2 * INFINIBAND_QDR.one_way(CM_MESSAGE_BYTES) + SN_SERVICE_CM_US
        assert holder["finished_at"] >= minimum

    def test_refill_charges_extra(self, fabric_env):
        sim, cluster, fabric = fabric_env
        first = run_request(sim, fabric, effects.StartTransaction())
        sim2 = fabric.sim
        t0 = sim2.now
        second = run_request(sim2, fabric, effects.StartTransaction())
        # The first start refilled the tid range (extra store round trip);
        # the second did not and must be faster.
        assert first["finished_at"] > (second["finished_at"] - t0)


class TestEthernetCpuTax:
    def test_per_message_cpu_charged_to_pn_pool(self):
        config = TellConfig(storage_nodes=2, network="ethernet-10g",
                            partitions_per_node=4)
        sim = Simulator()
        cluster = StorageCluster(n_nodes=2, partitions_per_node=4)
        fabric = SimFabric(sim, cluster,
                           [CommitManager(0, cluster.execute)], config)
        pool = CorePool(1)
        run_request(sim, fabric, effects.Get("data", "k"), pn_pool=pool)
        # send + receive charges reserved CPU on the single core
        assert pool.earliest(0.0) >= 2 * 7.9
