"""Determinism regression: same seed, same config => identical metrics.

The simulation stack must be bit-for-bit reproducible: the event kernel
tie-breaks by insertion order, partitioning hashes are PYTHONHASHSEED-
independent, and all randomness flows from seeded ``random.Random``
instances.  Performance work on the hot paths is only admissible when it
preserves this property, so this test pins it with the metrics digest
(which covers every raw measurement: per-type commit/conflict/abort
counts, the measured window, and the full latency series).
"""

from repro.bench.config import TellConfig, TpccScale
from repro.bench.simcluster import run_tell_experiment


def _small_config(seed: int) -> TellConfig:
    return TellConfig(
        processing_nodes=2,
        storage_nodes=3,
        threads_per_pn=4,
        scale=TpccScale.small(2),
        duration_us=40_000.0,
        warmup_us=4_000.0,
        seed=seed,
    )


def test_same_seed_identical_digest():
    first = run_tell_experiment(_small_config(seed=7))
    second = run_tell_experiment(_small_config(seed=7))
    assert first.total_finished > 0
    assert first.digest() == second.digest()
    # The digest pins these derived figures too; assert a few directly so
    # a failure names the quantity that diverged.
    assert first.tpmc == second.tpmc
    assert first.abort_rate == second.abort_rate
    assert first.latency().p99_us == second.latency().p99_us


def test_different_seed_diverges():
    # Not a formal requirement, but if two different seeds collide the
    # digest is almost certainly not covering the measurements.
    first = run_tell_experiment(_small_config(seed=7))
    second = run_tell_experiment(_small_config(seed=8))
    assert first.digest() != second.digest()
