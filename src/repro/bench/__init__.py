"""The paper-figure registry (Section 6).

Every figure and table is one entry of
:data:`repro.bench.experiments.EXPERIMENTS` (sweep, printed columns,
shape check), run by ``python -m repro.bench`` and by
``benchmarks/test_shapes.py``.  The workloads it drives live in
:mod:`repro.workloads.simulated`, their metrics in
:mod:`repro.runtime.metrics`.
"""
