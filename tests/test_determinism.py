"""Determinism regression: same seed, same config => the recorded metrics.

The simulation stack must be bit-for-bit reproducible: the event kernel
tie-breaks by insertion order, partitioning hashes are PYTHONHASHSEED-
independent, and all randomness flows from seeded ``random.Random``
instances.  Performance work on the hot paths is only admissible when it
preserves this property, so these tests pin two runs to the digests
recorded for them (a digest covers every raw measurement: per-type
commit/conflict/abort counts, the measured window, and the full latency
series).  The pinned runs execute under ``host_clock_trap``
(tests/conftest.py): a read of the host clock or the global RNG fails
them even where it leaves the digest alone.
"""

import hashlib

import pytest

from repro.bench.scale import scale_points
from repro.core.transaction import Transaction
from repro.store.cell import approx_size
from repro.workloads.simulated import SimulatedTell, SimulatedYcsb, TellConfig
from repro.workloads.tpcc.params import TpccScale
from tests.conftest import host_clock_trap


def _config(seed: int, threads_per_pn: int = 4,
            duration_us: float = 40_000.0) -> TellConfig:
    return TellConfig(
        processing_nodes=2,
        storage_nodes=3,
        threads_per_pn=threads_per_pn,
        scale=TpccScale.small(2),
        duration_us=duration_us,
        warmup_us=duration_us / 10,
        seed=seed,
    )


# Recorded under CPython 3.11.  A digest that moves is a change to the
# *simulated* system, never a speed-up (docs/performance.md): fix the
# change, or, for an intended model change, re-record the constant in
# the same commit and say so.  Each run also pins its abort-reason
# stream, which the digest does not cover: which conflict a transaction
# reports must not depend on hash order.
@pytest.mark.parametrize("config, pinned, pinned_aborts", [
    # also the ledger's tpcc_contended workload at 200 simulated ms
    pytest.param(
        _config(seed=1, threads_per_pn=8, duration_us=200_000.0),
        "d24b0c5500c73a8f44b62489ec4092379ffaff3ac8371bd520c0118725af9aa4",
        "5563587467cc30b96317dfc142b18232272ffb600011d1d43dae6b8bd3af825f",
        id="tpcc_e2e"),
    pytest.param(
        scale_points()[0]["config"],
        "b34eec05c76d77d5072ae5513a56343c0fa74897d9d4f455c065ccf6b79e2784",
        "73f057000de7d6821f62e53831e31030c9fda26a34e9207a18aba28ac1ab962b",
        id="smoke16"),
])
def test_pinned_digest(config, pinned, pinned_aborts, monkeypatch):
    # Every abort passes through Transaction._finish_abort; wrapping it
    # records each reason in order.  The wrapper stands in for
    # first-class abort records (ROADMAP 6(a)), which will replace it.
    reasons = []
    finish_abort = Transaction._finish_abort

    def recording(txn, entry, reason):
        reasons.append(reason)
        return finish_abort(txn, entry, reason)

    monkeypatch.setattr(Transaction, "_finish_abort", recording)
    with host_clock_trap() as trapped:
        metrics = SimulatedTell(config).run()
    assert trapped == []
    assert metrics.digest() == pinned
    stream = hashlib.sha256("\n".join(reasons).encode()).hexdigest()
    assert stream == pinned_aborts


def test_pinned_ycsb_digest():
    # Recorded at 584bb3b.  The YCSB deployment shares the runtime's
    # closed-loop client with TPC-C but draws its own seeds, operations
    # and per-row Compute; neither digest above covers that.
    config = TellConfig(
        processing_nodes=2, storage_nodes=3, threads_per_pn=4, mix="A",
        duration_us=40_000.0, warmup_us=4_000.0, seed=1,
    )
    with host_clock_trap() as trapped:
        metrics = SimulatedYcsb(config, record_count=500).run()
    assert trapped == []
    assert metrics.digest() == (
        "8e802d3c85502ece9e633e86b2fa89b8010ddeee8069c07b80d71f86a88ee631")


def test_different_seed_diverges(tiny_run, tiny_run_seed6):
    # Not a formal requirement, but if two different seeds collide the
    # digest is almost certainly not covering the measurements.
    assert tiny_run.metrics.digest() != tiny_run_seed6.metrics.digest()


def test_pinned_store_after_load():
    # The store a bulk load leaves behind, per node, partition and space:
    # key order (elastic migration copies cells in dict order), each cell's
    # version and its charged size.  A loader change must not reshuffle it
    # or resize it silently.
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, replication_factor=2,
        scale=TpccScale.tiny(2), seed=3,
    ))
    deployment.load()
    digest = hashlib.sha256()
    for node_id, node in sorted(deployment.cluster.nodes.items()):
        for partition_id, store in sorted(node.partitions.items()):
            for space, cells in sorted(store.spaces.items()):
                digest.update(repr((node_id, partition_id, space)).encode())
                for key, cell in cells.items():
                    charged = approx_size(key) + approx_size(cell.value)
                    digest.update(repr((key, cell.version, charged)).encode())
    assert digest.hexdigest() == (
        "4afcb85d435b905c38ae9a9f8f2d13d8ed80434ff07de538282ea4fdf88b69ac")


def test_pinned_replica_charges():
    # What each replica is charged, after a load and a short run at RF3:
    # the bytes of every (node, partition) store, every node's total, and
    # the number of copies shipped to backups.  The store pin above fixes
    # each cell's size; this one fixes how replication charges them.
    # Recorded at bf98700, where every backup still held its own dicts.
    deployment = SimulatedTell(TellConfig(
        processing_nodes=1, storage_nodes=3, replication_factor=3,
        threads_per_pn=4, scale=TpccScale.tiny(2), duration_us=20_000.0,
        warmup_us=2_000.0, seed=3,
    ))
    deployment.load()
    deployment.run()
    cluster = deployment.cluster
    charges = sorted(
        (node_id, partition_id, store.bytes_used)
        for node_id, node in cluster.nodes.items()
        for partition_id, store in node.partitions.items()
    )
    totals = [node.bytes_used for _id, node in sorted(cluster.nodes.items())]
    digest = hashlib.sha256(
        repr((charges, totals, cluster.replication_copies)).encode())
    assert digest.hexdigest() == (
        "6d44cd567a6133c56d28ca29a0407726df54c1473f1455e68dec4155f745d647")
