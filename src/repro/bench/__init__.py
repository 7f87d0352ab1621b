"""Benchmark harness: simulated deployments, metrics, experiment configs.

This package regenerates the paper's evaluation (Section 6): every figure
and table is one entry of :data:`repro.bench.experiments.EXPERIMENTS`
(sweep, printed columns, shape check), run by ``python -m repro.bench``
and by ``benchmarks/test_shapes.py``.
"""

from repro.bench.config import TellConfig
from repro.bench.metrics import LatencyStats, TxnMetrics

__all__ = ["LatencyStats", "TellConfig", "TxnMetrics"]
