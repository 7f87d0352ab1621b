"""The deployment runtime: where a Tell deployment is assembled and run.

* :mod:`repro.runtime.config` -- ``DeploymentConfig`` (the nine validated
  shape fields) and ``SimulationConfig`` (plus the simulator's timing);
* :mod:`repro.runtime.deployment` -- ``Deployment``, the one wiring, and
  ``SimulatedDeployment``, a deployment under the fabric minus the workload;
* :mod:`repro.runtime.fabric` -- ``SimFabric``, ``CorePool``, ``drive``;
* :mod:`repro.runtime.metrics` -- ``percentile``, ``LatencyStats`` and
  ``TxnMetrics``.

Import from the submodules: nothing is re-exported here, so
``repro.api.config`` can take the shape without importing the simulator.
Nothing in this package knows a workload or a benchmark: ``repro.api``,
``repro.workloads``, ``repro.bench``, ``repro.san``, ``repro.elastic`` and
``repro.baselines`` sit on it, never the other way round
(``tests/test_api_surface.py``).
"""
