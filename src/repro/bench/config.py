"""Experiment configuration for the simulated Tell deployment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.workloads.tpcc.params import TpccScale


@dataclass
class TellConfig:
    """One simulated Tell cluster + workload configuration.

    The defaults model the paper's testbed shape (Section 6.1) at reduced
    scale: NUMA-unit nodes with 4 cores, 7 storage nodes, InfiniBand.
    """

    # cluster shape
    processing_nodes: int = 4
    storage_nodes: int = 7
    commit_managers: int = 1
    replication_factor: int = 1
    network: str = "infiniband"
    pn_cores: int = 4
    sn_cores: int = 4
    partitions_per_node: int = 8

    # Tell knobs
    buffering: str = "tb"            # tb | sb | sbvs10 | sbvs1000
    tid_range_size: int = 256
    interleaved_tids: bool = False   # the paper's future-work tid scheme
    cm_sync_interval_us: float = 1000.0
    batching: bool = True            # ablation: split batches when False
    threads_per_pn: int = 32         # synchronous worker threads per PN
    #: Isolation protocol: si | wsi | ssi (repro.core.isolation).  SI is
    #: the paper's protocol and keeps the simulation byte-identical to
    #: the historical driver.
    isolation: str = "si"
    #: Partition placement: "hash" | "range", optionally ":<virtual-node
    #: count>" ("hash:16").  See repro.elastic.PlacementSpec.
    placement: str = "hash"

    # CPU cost model
    cpu_per_row_us: float = 10.0     # query processing work per row touched
    txn_overhead_us: float = 30.0    # parse/plan/commit bookkeeping per txn

    # workload
    scale: TpccScale = field(default_factory=lambda: TpccScale.small(8))
    mix: str = "standard"
    duration_us: float = 1_000_000.0   # one simulated second
    warmup_us: float = 100_000.0
    seed: int = 1

    # observability (repro.obs): metrics registry + span tracing.  Off by
    # default; REPRO_OBS=1 enables it regardless of this flag.
    observability: bool = False

    def with_(self, **changes) -> "TellConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)

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
