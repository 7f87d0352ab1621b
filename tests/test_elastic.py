"""Tests for live elasticity: ownership, migration, admin API.

Covers the versioned partition map's unit surface, the bounded-batch migration
protocol (including the no-leak guarantee after aborted migrations), the
``db.admin()`` cluster-administration API, the live simulated
double/halve cycle under the sanitizer suite at every isolation level,
fixed-seed determinism of migration schedules, and mid-migration SN-kill
chaos.
"""

import hashlib

import pytest

import repro
from repro.elastic.coordinator import ElasticCoordinator
from repro.elastic.migration import (StorageOps, assert_migration_clean,
                                     capture_pins, migrate_partition)
from repro.elastic.topology import (assert_no_leaks, plan_drain,
                                    plan_rebalance)
from repro.errors import InvalidState
from repro.sim.kernel import Delay
from repro.store.cluster import StorageCluster
from repro.workloads.simulated import SimulatedTell, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import host_clock_trap, shared_run


def make_cluster(n_nodes=3, rf=2, ppn=4):
    return StorageCluster(n_nodes=n_nodes, replication_factor=rf,
                          partitions_per_node=ppn)


def complete(operation):
    """Run a storage operation to its end, ignoring its batch costs."""
    with pytest.raises(StopIteration) as outcome:
        while True:
            next(operation)
    return outcome.value.value


def sim_config(**overrides):
    defaults = dict(
        processing_nodes=2,
        storage_nodes=2,
        threads_per_pn=4,
        scale=TpccScale.tiny(2),
        duration_us=120_000.0,
        warmup_us=10_000.0,
        seed=7,
    )
    defaults.update(overrides)
    return TellConfig(**defaults)


class TestOwnershipMap:
    def test_every_membership_change_bumps_epoch(self):
        cluster = make_cluster()
        pmap = cluster.partition_map
        assert pmap.epoch == 1
        node = cluster.create_node()
        assert pmap.epoch == 2
        ops = StorageOps(cluster, None, lambda message: None)
        complete(ops.remove_storage_node(node.node_id))
        assert pmap.epoch > 2
        assert [entry[0] for entry in pmap.epoch_log] == \
            list(range(1, pmap.epoch + 1))

    def test_duplicate_handoff_rejected(self):
        cluster = make_cluster()
        pmap = cluster.partition_map
        cluster.create_node()
        move = plan_rebalance(pmap)[0]
        pmap.begin_handoff(move.partition_id, move.src, move.dst)
        with pytest.raises(InvalidState):
            pmap.begin_handoff(move.partition_id, move.src, move.dst)

    def test_finish_handoff_promotes_atomically(self):
        cluster = make_cluster()
        pmap = cluster.partition_map
        node = cluster.create_node()
        move = next(m for m in plan_rebalance(pmap)
                    if m.dst == node.node_id)
        assert pmap.master_of(move.partition_id) == move.src
        handoff = pmap.begin_handoff(move.partition_id, move.src, move.dst)
        # mid-handoff the destination rides along as an extra backup
        replicas = pmap.ownership()[move.partition_id]
        assert replicas[0] == move.src and move.dst in replicas
        pmap.finish_handoff(handoff)
        replicas = pmap.ownership()[move.partition_id]
        assert replicas[0] == move.dst and move.src not in replicas

    @pytest.mark.parametrize("victim", ["src", "dst"])
    def test_fail_over_aborts_touching_handoffs(self, victim):
        cluster = make_cluster()
        pmap = cluster.partition_map
        node = cluster.create_node()
        move = next(m for m in plan_rebalance(pmap)
                    if m.dst == node.node_id)
        handoff = pmap.begin_handoff(move.partition_id, move.src, move.dst)
        dead = getattr(move, victim)
        cluster.nodes[dead].crash()
        pmap.fail_over(dead)
        assert not pmap.handoff_active(handoff)
        assert not pmap.migrations_in_flight()
        # one call: the abort's epoch step, then the promotion's
        assert [reason.split(":")[0] for _epoch, reason
                in pmap.epoch_log[-2:]] == ["handoff-abort", "fail-over"]
        assert move.dst not in pmap.replicas_of(move.partition_id)

    def test_plans_are_deterministic(self):
        plans = []
        for _ in range(2):
            cluster = make_cluster()
            cluster.create_node()
            plans.append([
                (m.partition_id, m.src, m.dst)
                for m in plan_rebalance(cluster.partition_map)
            ])
        assert plans[0] == plans[1] and plans[0]

    def test_plan_drain_avoids_drained_node(self):
        cluster = make_cluster(n_nodes=4)
        moves = plan_drain(cluster.partition_map, 1)
        assert moves
        assert all(m.src == 1 and m.dst != 1 for m in moves)


class TestMembershipRefusals:
    """A refused membership change raises and leaves the node set, the
    map's members, its epoch and its epoch log as they were."""

    def topology(self, cluster):
        pmap = cluster.partition_map
        return (sorted(cluster.nodes), list(pmap.node_ids), pmap.epoch,
                list(pmap.epoch_log))

    def refused(self, cluster, change):
        before = self.topology(cluster)
        with pytest.raises(InvalidState):
            change()
        assert self.topology(cluster) == before

    def test_detach_unknown_node(self):
        cluster = make_cluster()
        self.refused(cluster, lambda: cluster.detach_node(99))

    def test_detach_node_that_hosts_partitions(self):
        cluster = make_cluster()
        self.refused(cluster, lambda: cluster.detach_node(0))

    def test_map_refuses_to_remove_a_hosting_node(self):
        cluster = make_cluster()
        self.refused(cluster, lambda: cluster.partition_map.remove_node(0))

    def test_map_refuses_to_remove_a_non_member(self):
        cluster = make_cluster()
        self.refused(cluster, lambda: cluster.partition_map.remove_node(99))

    def test_storage_ops_refuse_an_unknown_node(self):
        cluster = make_cluster()
        logged = []
        ops = StorageOps(cluster, None, logged.append)
        self.refused(cluster, lambda: next(ops.remove_storage_node(99)))
        assert logged == []


class TestClusterAdmin:
    def _fill(self, session, rows=60):
        session.execute(
            "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"
        )
        for i in range(rows):
            session.execute("INSERT INTO kv VALUES (?, ?)", [i, i * 3])

    def test_add_then_drain_keeps_data(self):
        with repro.connect(storage_nodes=3, replication_factor=2) as db:
            session = db.session()
            self._fill(session)
            with db.admin() as admin:
                node_id = admin.add_storage_node()
                assert db.cluster.partition_map.is_balanced()
                admin.remove_storage_node(node_id, drain=True)
            assert len(db.cluster.nodes) == 3
            rows = session.query("SELECT COUNT(*) AS n, SUM(v) AS s FROM kv")
            assert rows[0]["n"] == 60
            assert rows[0]["s"] == sum(i * 3 for i in range(60))

    def test_wait_balanced_and_topology_view(self):
        with repro.connect(storage_nodes=2) as db:
            with db.admin() as admin:
                admin.add_storage_node(rebalance=False)
                admin.wait_balanced()
                view = admin.topology()
        assert view["balanced"] is True
        assert view["epoch"] == db.cluster.partition_map.epoch
        assert sorted(view["master_counts"]) == view["nodes"]
        assert view["n_partitions"] == db.cluster.partitioner.n_partitions

    def test_closed_database_refuses_admin(self):
        db = repro.connect(storage_nodes=2)
        db.close()
        with pytest.raises(InvalidState):
            db.admin()


class TestMigrationLeaks:
    def test_aborted_migration_leaks_nothing(self):
        """The regression the ``_backfill_index`` leak taught us to pin:
        an aborted migration must leave no handoff residue, no partial
        copy, no open transaction, and no lav pin."""
        with repro.connect(storage_nodes=3, replication_factor=2) as db:
            session = db.session()
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            for i in range(40):
                session.execute("INSERT INTO t VALUES (?, ?)", [i, i])
            cluster = db.cluster
            pins = capture_pins(db.commit_managers)
            with db.admin() as admin:
                admin.add_storage_node(rebalance=False)
            moves = plan_rebalance(cluster.partition_map)
            move = moves[0]
            steps = migrate_partition(cluster, move, batch_cells=1)
            next(steps)  # first batch yielded; handoff registered
            assert cluster.partition_map.migrations_in_flight()
            cluster.nodes[move.dst].crash()  # destination dies mid-copy
            with pytest.raises(StopIteration) as outcome:
                while True:
                    next(steps)
            assert outcome.value.value is False  # aborted, not committed
            cluster.nodes[move.dst].restart()
            assert_migration_clean(cluster, db.commit_managers, pins)

    def test_committed_migration_leaks_nothing(self):
        with repro.connect(storage_nodes=2) as db:
            session = db.session()
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            for i in range(20):
                session.execute("INSERT INTO t VALUES (?)", [i])
            pins = capture_pins(db.commit_managers)
            with db.admin() as admin:
                admin.add_storage_node()
            assert_migration_clean(db.cluster, db.commit_managers, pins)


def _run_diurnal(config, double_at=30_000.0, halve_at=70_000.0):
    """Build a deployment, schedule a live SN double + halve, run it."""
    deployment = SimulatedTell(config)
    deployment.load()
    coordinator = ElasticCoordinator(deployment, batch_cells=64)
    sim = deployment.sim
    base = config.storage_nodes
    sim.call_at(double_at, lambda: sim.spawn(
        coordinator.scale_storage_to(base * 2), name="double"))
    sim.call_at(halve_at, lambda: sim.spawn(
        coordinator.scale_storage_to(base), name="halve"))
    metrics = deployment.run()
    return deployment, coordinator, metrics


@shared_run()
def diurnal():
    """The seed-7 ``sim_config()`` cycle, run under ``host_clock_trap``:
    ``(deployment, coordinator, metrics, trapped calls)``."""
    with host_clock_trap() as trapped:
        deployment, coordinator, metrics = _run_diurnal(sim_config())
    return deployment, coordinator, metrics, trapped


class TestLiveElasticity:
    @pytest.mark.parametrize("isolation", ["si", "wsi", "ssi"])
    def test_diurnal_double_halve_sanitized(self, isolation, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        deployment, coordinator, metrics = _run_diurnal(
            sim_config(isolation=isolation)
        )
        # run() already asserted the sanitizer log is clean
        assert metrics.total_committed > 50
        assert coordinator.stats.partitions_moved > 0
        assert len(deployment.cluster.nodes) == 2
        assert_no_leaks(deployment.cluster)

    def test_fixed_seed_reproduces_migration_schedule(self, diurnal):
        """One run against constants recorded at d7214b1 (CPython 3.11.7):
        the ownership layer's only end-to-end pin."""
        from repro.dispatch import WrongOwnerRedirect

        deployment, coordinator, metrics, trapped = diurnal
        assert trapped == []
        assert metrics.digest() == (
            "c4bcc60be7e34c38c5bc1c225b34b7aa"
            "5e61125759540df0c9f4dcc435db2a9f"
        )
        pmap = deployment.cluster.partition_map
        assert pmap.epoch == 39 and len(pmap.epoch_log) == 39
        assert [mw.redirects for mw in deployment.interceptors
                if isinstance(mw, WrongOwnerRedirect)] == [4]
        stats = coordinator.stats
        assert (stats.partitions_moved, stats.cells_copied, stats.batches,
                stats.aborted_handoffs) == (17, 3183, 94, 0)
        # The (sim time, message) event log, recorded at cef5b6c.
        assert hashlib.sha256(repr(coordinator.events).encode()).hexdigest() \
            == ("075d3d20b78a2df90518af7ca9589ba1"
                "abbaa6ca70f29d06616516c5583d8a7f")

    def test_wrong_owner_redirects_recover(self, diurnal):
        deployment, _coordinator, metrics, _trapped = diurnal
        from repro.dispatch import WrongOwnerRedirect

        redirectors = [mw for mw in deployment.interceptors
                       if isinstance(mw, WrongOwnerRedirect)]
        assert len(redirectors) == 1
        # Redirects happened and every one of them recovered: no
        # WrongOwner error ever surfaced as a transaction outcome.
        assert redirectors[0].redirects > 0
        assert metrics.total_committed > 50

    def test_sn_kill_mid_migration_chaos(self, monkeypatch):
        """Kill the source of the first in-flight handoff: the fail-over
        aborts it, the migration unwinds, the run stays clean."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        config = sim_config(storage_nodes=3, replication_factor=2)
        deployment = SimulatedTell(config)
        deployment.load()
        coordinator = ElasticCoordinator(deployment, batch_cells=8)
        sim = deployment.sim
        pmap = deployment.cluster.partition_map
        sim.call_at(30_000.0, lambda: sim.spawn(
            coordinator.scale_storage_to(4), name="grow"))
        killed = []

        def killer():
            poll = Delay(50.0)
            while not pmap.migrations_in_flight():
                yield poll
            victim = pmap.migrations_in_flight()[0].src
            deployment.management.handle_node_failure(victim)
            killed.append(victim)

        sim.spawn(killer(), name="killer")
        metrics = deployment.run()
        assert killed, "the chaos process never found a live handoff"
        assert metrics.total_committed > 50
        assert coordinator.stats.aborted_handoffs >= 1
        assert any("fail-over" in reason
                   for _epoch, reason in pmap.epoch_log)
        assert_no_leaks(deployment.cluster)


def stored_cells(cluster):
    """(partition, space, key) -> (version, value) of every cell the
    partitions' masters hold."""
    pmap = cluster.partition_map
    return {
        (pid, space, key): (cell.version, cell.value)
        for pid in range(pmap.n_partitions)
        for space, cells in cluster.nodes[pmap.master_of(pid)]
        .partition(pid).spaces.items()
        for key, cell in cells.items()
    }


def embedded_driver():
    """(cluster, perform, driver) for ``db.admin()`` on a filled 3-SN RF2
    database; ``perform(name, *args)`` runs one storage operation."""
    db = repro.connect(storage_nodes=3, replication_factor=2)
    session = db.session()
    session.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
    for i in range(60):
        session.execute("INSERT INTO kv VALUES (?, ?)", [i, i * 3])
    admin = db.admin()
    return db.cluster, lambda name, *args: getattr(admin, name)(*args), admin


def simulated_driver():
    """The same for the coordinator on an idle, loaded 3-SN RF2
    ``SimulatedTell``: each operation runs to its end on the sim
    timeline without the workload."""
    deployment = SimulatedTell(sim_config(storage_nodes=3,
                                          replication_factor=2))
    deployment.load()
    coordinator = ElasticCoordinator(deployment)
    sim = deployment.sim

    def perform(name, *args):
        operation = getattr(coordinator, name)(*args)
        return sim.run_until_complete(sim.spawn(operation, name=name))

    return deployment.cluster, perform, coordinator


class TestOneStateMachineTwoDrivers:
    """``db.admin()`` and the sim coordinator drive the same
    ``StorageOps`` generators; only the timing differs."""

    SEQUENCE = [("add_storage_node",), ("rebalance",),
                ("remove_storage_node", 0), ("remove_storage_node", 3)]

    def test_same_sequence_same_topology(self):
        runs = []
        for make in (embedded_driver, simulated_driver):
            cluster, perform, driver = make()
            returned = [perform(*step) for step in self.SEQUENCE]
            assert_no_leaks(cluster)
            runs.append((returned, cluster.partition_map, driver))
        (e_returned, e_map, admin), (s_returned, s_map, coordinator) = runs
        assert e_returned == s_returned == [3, 0, None, None]
        assert s_map.epoch_log == e_map.epoch_log
        assert s_map.ownership() == e_map.ownership()
        moved = [(stats.partitions_moved, stats.aborted_handoffs)
                 for stats in (admin.stats, coordinator.stats)]
        assert moved[0] == moved[1] == (35, 0)

    @pytest.mark.parametrize("make", [embedded_driver, simulated_driver],
                             ids=["admin", "coordinator"])
    def test_hard_removal_at_rf2_loses_nothing(self, make):
        cluster, perform, _driver = make()
        before = stored_cells(cluster)
        assert perform("remove_storage_node", 1, False) is None
        assert sorted(cluster.nodes) == [0, 2]
        assert stored_cells(cluster) == before
        pmap = cluster.partition_map
        assert all(len(pmap.replicas_of(pid)) == 2
                   for pid in range(pmap.n_partitions))
        assert_no_leaks(cluster)

    def test_scale_to_reads_membership_under_the_lock(self):
        """A removal holding the lock when ``scale_storage_to`` starts
        must not make it count a node that is already on its way out."""
        cluster, _perform, coordinator = simulated_driver()
        sim = coordinator.sim
        sim.spawn(coordinator.remove_storage_node(2), name="remove")
        scale = sim.spawn(coordinator.scale_storage_to(4), name="scale")
        result = sim.run_until_complete(scale)
        assert len(cluster.nodes) == 4
        assert result == sorted(cluster.nodes)
        assert sorted(coordinator.fabric.sn_pools) == sorted(cluster.nodes)
        assert_no_leaks(cluster)
