"""Experiment configuration for the simulated Tell deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.config import SimulationConfig
from repro.workloads.tpcc.params import TpccScale


@dataclass(frozen=True)
class TellConfig(SimulationConfig):
    """One simulated Tell cluster + workload configuration:
    :class:`~repro.runtime.config.SimulationConfig` (validated shape,
    timing model, run length) plus the workload and its CPU cost model."""

    # CPU cost model
    cpu_per_row_us: float = 10.0     # query processing work per row touched
    txn_overhead_us: float = 30.0    # parse/plan/commit bookkeeping per txn

    # workload
    scale: TpccScale = field(default_factory=lambda: TpccScale.small(8))
    mix: str = "standard"

    @property
    def total_cores(self) -> int:
        """Total CPU cores of the deployment, the x-axis of Figures 8/9
        (PNs + SNs + commit managers at 2 cores + 1 management node)."""
        return (
            self.processing_nodes * self.pn_cores
            + self.storage_nodes * self.sn_cores
            + self.commit_managers * 2
            + 2
        )
