"""The simulated Tell deployment running TPC-C.

:class:`repro.runtime.deployment.SimulatedDeployment` owns the wiring,
the fabric, the processing-node pool, ``run()`` and ``quiesce()``; this
module adds the workload: catalog, population, and the closed-loop
terminal drawing from the configured mix.  Other workloads
(:class:`repro.bench.ycsb_sim.SimulatedYcsb`) replace ``load`` and
``_terminal``.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Sequence

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.core.processing_node import ProcessingNode
from repro.core.transaction import Transaction
from repro.dispatch import Dispatcher, Interceptor
from repro.errors import TellError, TransactionAborted
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

    def _terminal(self, handle: PnHandle, seed: int) -> Generator:
        """One closed-loop client (a sim process body); the workload
        subclasses replace this with their own transaction loop."""
        pn, pool, cm_index, indexes = handle
        config = self.config
        mix = MIXES[config.mix]
        warmup_end = self._warmup_end
        end_time = self._end_time
        rng = random.Random(seed)
        param_gen = ParamGenerator(
            config.scale, seed=seed ^ 0x5DEECE66D,
            remote_accesses=mix.remote_accesses,
        )
        param_fns = {name: getattr(param_gen, name) for name in TRANSACTIONS}
        sim = self.sim
        active = self._pn_active
        pn_id = pn.pn_id
        while sim.now < end_time and active.get(pn_id, True):
            txn_name = mix.pick(rng)
            params = param_fns[txn_name]()
            started = self.sim.now
            try:
                outcome = yield from self._drive(
                    pool, cm_index,
                    self._transaction_script(pn, indexes, txn_name, params),
                    pn_id=pn.pn_id,
                )
            except TellError:
                # An infrastructure failure (e.g. a storage node dying
                # under an in-flight request) escaped the transaction's
                # own abort path.  The terminal abandons the transaction
                # exactly like a crashed PN -- recovery reconciles the
                # leftover state -- and keeps serving.
                outcome = "conflict"
            if started >= warmup_end:
                self.metrics.record(txn_name, outcome, self.sim.now - started)

    def _transaction_script(
        self, pn: ProcessingNode, indexes: IndexManager,
        txn_name: str, params,  # noqa: ANN001
    ) -> Generator:
        config = self.config
        try:
            txn: Transaction = yield from pn.begin()
        except TellError:
            return "conflict"
        if txn.span is not None:
            txn.span.attrs["txn"] = txn_name
        context = TpccContext(
            self.catalog, txn, indexes, cpu_per_row_us=config.cpu_per_row_us
        )
        context.districts_per_warehouse = config.scale.districts_per_warehouse
        if config.txn_overhead_us > 0:
            yield effects.Compute(config.txn_overhead_us)
        try:
            yield from TRANSACTIONS[txn_name](context, params)
        except TpccRollback:
            yield from txn.abort()
            return "user_abort"
        except TransactionAborted:
            return "conflict"
        except TellError:
            # e.g. KeyNotFound under races: treat as an abort
            yield from txn.abort()
            return "conflict"
        try:
            yield from txn.commit()
        except TransactionAborted:
            return "conflict"
        return "committed"


def run_tell_experiment(
    config: TellConfig, interceptors: Sequence[Interceptor] = ()
) -> TxnMetrics:
    """Convenience: build, load, run, return metrics."""
    deployment = SimulatedTell(config, interceptors=interceptors)
    deployment.load()
    return deployment.run()
