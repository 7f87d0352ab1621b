"""The simulated Tell deployment running TPC-C or YCSB.

:class:`repro.runtime.deployment.SimulatedDeployment` owns the wiring,
the fabric, the processing-node pool, ``run()`` and ``quiesce()``; this
module adds the workload: catalog, population, and each terminal's
draws from the configured mix (the closed loop around them is the
runtime's).  :class:`SimulatedYcsb` replaces ``load`` and
``_transactions`` of :class:`SimulatedTell`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, Generator, Iterator, Optional, Sequence,
                    Tuple)

from repro import effects
from repro.core.transaction import Transaction
from repro.dispatch import Dispatcher, Interceptor
from repro.runtime.config import SimulationConfig
from repro.runtime.deployment import SimulatedDeployment
from repro.runtime.metrics import TxnMetrics
from repro.sim.kernel import SchedulerPolicy
from repro.sql.table import IndexManager
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.mixes import MIXES
from repro.workloads.tpcc.params import ParamGenerator, TpccScale
from repro.workloads.tpcc.population import populate
from repro.workloads.tpcc.schema import build_tpcc_catalog
from repro.workloads.tpcc.transactions import (
    TRANSACTIONS,
    TpccContext,
    TpccRollback,
)
from repro.workloads.ycsb import (
    WORKLOADS,
    YcsbClient,
    build_ycsb_catalog,
    populate_ycsb,
)


@dataclass(frozen=True)
class TellConfig(SimulationConfig):
    """One simulated Tell cluster + workload configuration:
    :class:`~repro.runtime.config.SimulationConfig` (validated shape,
    timing model, run length) plus the workload and its CPU cost model."""

    cpu_per_row_us: float = 10.0     # query processing work per row touched
    scale: TpccScale = field(default_factory=lambda: TpccScale.small(8))
    mix: str = "standard"


class SimulatedTell(SimulatedDeployment):
    """A complete simulated deployment running TPC-C."""

    _rollback_errors = (TpccRollback,)

    def __init__(self, config: TellConfig,
                 interceptors: Sequence[Interceptor] = (),
                 policy: Optional[SchedulerPolicy] = None):
        super().__init__(config, TxnMetrics(), interceptors, policy)
        self.catalog = build_tpcc_catalog()

    # -- setup (direct, untimed) --------------------------------------------------------

    def load(self) -> Dict[str, int]:
        """Populate the database (setup step, not simulated time)."""
        loader = BulkLoader(self.catalog, IndexManager())
        counts = effects.run_direct(
            populate(loader, self.config.scale, seed=self.config.seed),
            Dispatcher(self.cluster),
        )
        self._populated = True
        return counts

    def _obs_label(self) -> str:
        config = self.config
        return (f"tell-pn{config.processing_nodes}"
                f"-sn{config.storage_nodes}"
                f"-rf{config.replication_factor}"
                f"-cm{config.commit_managers}"
                f"-{config.buffering}-{config.mix}-seed{config.seed}")

    def _transactions(self, indexes: IndexManager,
                      seed: int) -> Iterator[Tuple[str, Callable]]:
        """One terminal's draws from the configured mix."""
        config = self.config
        mix = MIXES[config.mix]
        rng = random.Random(seed)
        param_gen = ParamGenerator(
            config.scale, seed=seed ^ 0x5DEECE66D,
            remote_accesses=mix.remote_accesses,
        )
        param_fns = {name: getattr(param_gen, name) for name in TRANSACTIONS}
        while True:
            txn_name = mix.pick(rng)
            params = param_fns[txn_name]()
            yield txn_name, lambda txn: TRANSACTIONS[txn_name](
                self._context(txn, indexes), params)

    def _context(self, txn: Transaction, indexes: IndexManager) -> TpccContext:
        config = self.config
        context = TpccContext(
            self.catalog, txn, indexes, cpu_per_row_us=config.cpu_per_row_us
        )
        context.districts_per_warehouse = config.scale.districts_per_warehouse
        return context


class SimulatedYcsb(SimulatedTell):
    """A simulated deployment serving YCSB instead of TPC-C.

    ``config.mix`` selects the YCSB workload letter (A-F);
    ``record_count`` sizes the usertable.  A zipfian key-value workload
    has no partitionable structure at all, and the shared-data
    architecture's scaling is unaffected -- "no assumptions on the
    workload" (Section 2.1) made measurable.
    """

    def __init__(self, config: TellConfig, record_count: int = 10_000,
                 zipf_theta: float = 0.99,
                 interceptors: Sequence[Interceptor] = ()):
        super().__init__(config, interceptors=interceptors)
        self.catalog = build_ycsb_catalog()
        self.record_count = record_count
        self.zipf_theta = zipf_theta
        if config.mix.upper() not in WORKLOADS:
            raise ValueError(f"unknown YCSB workload {config.mix!r}")
        self.workload = WORKLOADS[config.mix.upper()]

    def load(self) -> Dict[str, int]:
        loader = BulkLoader(self.catalog, IndexManager())
        count = effects.run_direct(
            populate_ycsb(loader, self.record_count, seed=self.config.seed),
            Dispatcher(self.cluster),
        )
        self._populated = True
        return {"usertable": count}

    def _terminal_seed(self, pn_id: int, thread: int) -> int:
        return (self.config.seed * 7919 + pn_id * 211 + thread) & 0x7FFFFFFF

    def _transactions(self, indexes: IndexManager,
                      seed: int) -> Iterator[Tuple[str, Callable]]:
        """One terminal's operations from its own :class:`YcsbClient`."""
        client = YcsbClient(
            self.catalog, indexes, self.record_count, self.workload,
            theta=self.zipf_theta, seed=seed,
        )
        cpu_per_row_us = self.config.cpu_per_row_us

        def run(txn: Transaction, op: str, args: Dict) -> Generator:
            yield from client.execute(txn, op, args)
            if cpu_per_row_us > 0:
                yield effects.Compute(cpu_per_row_us)

        while True:
            op, args = client.next_operation()
            yield op, lambda txn: run(txn, op, args)
