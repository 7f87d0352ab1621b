"""Precise timing tests for the simulation fabric's cost model."""

import pytest

from repro import effects
from repro.errors import NodeUnavailable
from repro.net.profiles import INFINIBAND_QDR
from repro.runtime import fabric as fabric_module
from repro.runtime.fabric import (CM_MESSAGE_BYTES, MIGRATION_CELL_US,
                                  SN_CORES, SN_SERVICE_CM_US)
from repro.store.cluster import StorageCluster
from tests.conftest import FabricRig


def two_node_rig():
    return FabricRig(StorageCluster(n_nodes=2, replication_factor=1,
                                    partitions_per_node=4))


@pytest.fixture
def rig():
    return two_node_rig()


class TestStorageTiming:
    def test_get_round_trip_in_microseconds(self, rig):
        rig.cluster.execute(effects.Put("data", "k", "v"))
        assert rig.perform(effects.Get("data", "k")) == [("v", 1)]
        # RTT = 2 x one_way + read service; far under a millisecond on IB.
        assert 4.0 < rig.sim.now < 25.0

    def test_batch_to_one_node_is_one_round_trip(self, rig):
        cluster = rig.cluster
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
        rig.perform(effects.Get("data", keys[0]))
        t_single = rig.sim.now
        batched = two_node_rig()
        batched.perform(effects.multi_get("data", keys))
        # 5 ops in one message cost scarcely more than 1 op.
        assert batched.sim.now < t_single * 2.5
        assert batched.fabric.stats.messages == 1
        assert batched.fabric.stats.store_ops == 5

    def test_mutation_happens_at_service_time(self, rig):
        """State changes are not visible before the request is serviced."""
        sim, cluster, fabric = rig.sim, rig.cluster, rig.fabric

        observed = {}

        def writer():
            yield from fabric.perform(0, effects.Put("data", "k", "v"))

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

    def test_queueing_at_saturated_node(self, rig):
        """Concurrent requests to one node queue behind its core pool."""
        sim, fabric = rig.sim, rig.fabric
        finish_times = []

        def client(key):
            def proc():
                yield from fabric.perform(
                    0, effects.Put("data", key, "x" * 2000)
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
        times = {}
        for rf in (1, 3):
            rig = FabricRig(StorageCluster(n_nodes=3, replication_factor=rf))
            rig.perform(effects.Put("data", "k", "v"))
            times[rf] = rig.sim.now
        assert times[3] > times[1] + 5.0

    def test_scan_visits_every_master(self, rig):
        cluster, fabric = rig.cluster, rig.fabric
        for i in range(20):
            cluster.execute(effects.Put("data", i, i))
        before = fabric.stats.messages
        (rows,) = rig.perform(effects.Scan("data", None, None))
        assert len(rows) == 20
        assert fabric.stats.messages - before == len(cluster.nodes)

    def test_scan_on_a_dead_master_raises_into_the_scanner(self, rig):
        """The scan's error is the response: 64 bytes on the wire, then
        raised where the scan was yielded."""
        cluster, fabric = rig.cluster, rig.fabric
        for i in range(20):
            cluster.execute(effects.Put("data", i, i))
        cluster.nodes[1].crash()
        before = fabric.stats.bytes_sent

        def scanner():
            try:
                yield effects.Scan("data", None, None)
            except NodeUnavailable as error:
                return error
            return None

        assert isinstance(rig.run(scanner()), NodeUnavailable)
        assert fabric.stats.bytes_sent - before == 64


class TestMigrationCharge:
    CELLS, NBYTES = 100, 4096

    def _charge(self, rig, src, dst):
        rig.sim.run_until_complete(rig.sim.spawn(
            rig.fabric.charge_migration(src, dst, self.CELLS, self.NBYTES)))
        return rig.sim.now

    def _service(self, rig):
        return (rig.fabric.profile.server_cpu_per_msg_us
                + MIGRATION_CELL_US * self.CELLS)

    def test_batch_is_source_then_wire_then_destination(self, rig):
        # Every source core is busy until 10 us: the copy queues behind
        # foreground work, then the install reserves a destination core.
        for _ in range(SN_CORES):
            rig.fabric.sn_pools[0].reserve(0.0, 10.0)
        service = self._service(rig)
        ended = self._charge(rig, 0, 1)
        assert ended == (10.0 + service
                         + rig.fabric.profile.one_way(self.NBYTES)) + service
        # The install holds one destination core until the batch ends.
        destination = rig.fabric.sn_pools[1]
        for _ in range(SN_CORES - 1):
            destination.reserve(0.0, 1e6)
        assert destination.earliest(0.0) == ended

    @pytest.mark.parametrize("gone", [0, 1])
    def test_an_endpoint_without_a_pool_is_skipped(self, rig, gone):
        del rig.fabric.sn_pools[gone]
        assert self._charge(rig, 0, 1) == pytest.approx(
            self._service(rig) + rig.fabric.profile.one_way(self.NBYTES))

    def test_pools_follow_the_cluster_membership(self, rig):
        cluster, pools = rig.cluster, rig.fabric.sn_pools
        node_id = cluster.create_node().node_id
        rig.fabric.sync_pools()
        assert sorted(pools) == [0, 1, node_id]
        cluster.detach_node(node_id)
        rig.fabric.sync_pools()
        assert sorted(pools) == [0, 1]


class TestCmTiming:
    def test_start_costs_one_round_trip(self, rig):
        (start,) = rig.perform(effects.StartTransaction())
        assert start.tid >= 1
        minimum = 2 * INFINIBAND_QDR.one_way(CM_MESSAGE_BYTES) + SN_SERVICE_CM_US
        assert rig.sim.now >= minimum

    def test_refill_charges_extra(self, rig):
        rig.perform(effects.StartTransaction())
        first = rig.sim.now
        rig.perform(effects.StartTransaction())
        # The first start refilled the tid range (extra store round trip);
        # the second did not and must be faster.
        assert first > rig.sim.now - first


class TestEthernetCpuTax:
    def test_per_message_cpu_charged_to_pn_pool(self, monkeypatch):
        monkeypatch.setattr(fabric_module, "PN_CORES", 1)
        rig = FabricRig(StorageCluster(n_nodes=2, partitions_per_node=4),
                        network="ethernet-10g")
        rig.perform(effects.Get("data", "k"))
        # send + receive charges reserved CPU on the single core
        assert rig.fabric.pn_pools[0].earliest(0.0) >= 2 * 7.9
