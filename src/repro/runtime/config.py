"""The deployment shape: the nine fields every Tell deployment is built from.

:class:`DeploymentConfig` is their single declaration and validation
point.  :class:`repro.api.DatabaseConfig` *is* this shape;
:class:`SimulationConfig` adds what the simulated fabric and closed loop
read, and :class:`repro.workloads.simulated.TellConfig` the workload on
top -- so a bad value fails identically, at construction, behind every
front door.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TypeVar

from repro.core.isolation import ISOLATION_MODES
from repro.errors import InvalidState

_Config = TypeVar("_Config", bound="DeploymentConfig")


@dataclass(frozen=True)
class DeploymentConfig:
    """Validated shape of one deployment (paper Figure 3); frozen, so
    :meth:`with_` makes modified copies."""

    storage_nodes: int = 3
    replication_factor: int = 1
    commit_managers: int = 1
    #: Buffering strategy: tb | sb | sbvs<unit> (paper Section 5.3).
    buffering: str = "tb"
    tid_range_size: int = 256
    #: The paper's future-work tid scheme (interleaved ranges).
    interleaved_tids: bool = False
    partitions_per_node: int = 8
    #: Attach a :class:`repro.obs.Observability` hub to the deployment
    #: (``REPRO_OBS=1`` enables it regardless of this flag).
    observability: bool = False
    #: Isolation protocol: "si" (snapshot isolation, the paper's default),
    #: "wsi" (write-snapshot isolation) or "ssi" (serializable SI).  See
    #: ``docs/isolation.md`` and :mod:`repro.core.isolation`.
    isolation: str = "si"

    def __post_init__(self) -> None:
        for name in ("commit_managers", "storage_nodes", "replication_factor",
                     "partitions_per_node", "tid_range_size"):
            if getattr(self, name) < 1:
                raise InvalidState(f"{name} must be >= 1")
        if self.replication_factor > self.storage_nodes:
            raise InvalidState(
                f"replication factor {self.replication_factor} exceeds "
                f"the {self.storage_nodes} storage node(s)"
            )
        if self.isolation not in ISOLATION_MODES:
            raise InvalidState(
                f"unknown isolation mode {self.isolation!r}; pick one of "
                f"{', '.join(ISOLATION_MODES)}"
            )
        # The grammar of repro.core.buffers.make_strategy.
        if not re.fullmatch(r"tb|sb|sbvs\d*", str(self.buffering).lower()):
            raise InvalidState(
                f"unknown buffering strategy {self.buffering!r} "
                f"(expected tb, sb, or sbvs<unit>)"
            )

    def with_(self: _Config, **changes: object) -> _Config:
        """A modified copy (validation runs again)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SimulationConfig(DeploymentConfig):
    """The shape plus the simulator's timing model and run length:
    everything :class:`repro.runtime.fabric.SimFabric` and
    :class:`repro.runtime.deployment.SimulatedDeployment` read.  Defaults
    model the paper's testbed (Section 6.1) at reduced scale: NUMA-unit
    nodes with 4 cores (:data:`repro.runtime.fabric.PN_CORES` /
    ``SN_CORES``), 7 storage nodes, InfiniBand.
    """

    storage_nodes: int = 7
    processing_nodes: int = 4
    network: str = "infiniband"
    cm_sync_interval_us: float = 1000.0
    batching: bool = True            # ablation: split batches when False
    threads_per_pn: int = 32         # synchronous worker threads per PN
    duration_us: float = 1_000_000.0   # one simulated second
    warmup_us: float = 100_000.0
    seed: int = 1
    txn_overhead_us: float = 30.0    # parse/plan/commit bookkeeping per txn

    @property
    def total_cores(self) -> int:
        """Total CPU cores of the deployment, the x-axis of Figures 8/9
        (PNs + SNs + commit managers at 2 cores + 1 management node)."""
        from repro.runtime.fabric import PN_CORES, SN_CORES

        return (
            self.processing_nodes * PN_CORES
            + self.storage_nodes * SN_CORES
            + self.commit_managers * 2
            + 2
        )
