"""The simulated Tell deployment running TPC-C.

:class:`repro.runtime.deployment.SimulatedDeployment` owns the wiring,
the fabric, the processing-node pool, ``run()`` and ``quiesce()``; this
module adds the workload: catalog, population, and each terminal's
draws from the configured mix (the closed loop around them is the
runtime's).  Other workloads (:class:`repro.bench.ycsb_sim.SimulatedYcsb`)
replace ``load`` and ``_transactions``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Sequence, Tuple

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.core.transaction import Transaction
from repro.dispatch import Dispatcher, Interceptor
from repro.runtime.deployment import PnHandle, SimulatedDeployment
from repro.sql.table import IndexManager
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.mixes import MIXES
from repro.workloads.tpcc.params import ParamGenerator
from repro.workloads.tpcc.population import populate
from repro.workloads.tpcc.schema import build_tpcc_catalog
from repro.workloads.tpcc.transactions import (
    TRANSACTIONS,
    TpccContext,
    TpccRollback,
)


class SimulatedTell(SimulatedDeployment):
    """A complete simulated deployment running TPC-C."""

    _rollback_errors = (TpccRollback,)

    def __init__(self, config: TellConfig,
                 interceptors: Sequence[Interceptor] = ()):
        super().__init__(config, TxnMetrics(), interceptors)
        self.catalog = build_tpcc_catalog()

    # -- setup (direct, untimed) --------------------------------------------------------

    def load(self) -> Dict[str, int]:
        """Populate the database (setup step, not simulated time)."""
        loader = BulkLoader(self.catalog, IndexManager())
        counts = effects.run_direct(
            populate(self.catalog, loader, self.config.scale,
                     seed=self.config.seed),
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

    def _transactions(self, handle: PnHandle,
                      seed: int) -> Iterator[Tuple[str, Callable]]:
        """One terminal's draws from the configured mix."""
        indexes = handle[3]
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


def run_tell_experiment(
    config: TellConfig, interceptors: Sequence[Interceptor] = ()
) -> TxnMetrics:
    """Convenience: build, load, run, return metrics."""
    deployment = SimulatedTell(config, interceptors=interceptors)
    deployment.load()
    return deployment.run()
