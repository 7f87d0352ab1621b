"""Simulated Tell deployment running the YCSB-style workload.

Reuses the TPC-C deployment's fabric, drivers, ``run()`` and recovery; only
the catalog, population, and terminal loop differ.  The point of the
experiment: a zipfian key-value workload has no partitionable structure
at all, and the shared-data architecture's scaling is unaffected --
"no assumptions on the workload" (Section 2.1) made measurable.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.simcluster import SimulatedTell
from repro.dispatch import Dispatcher
from repro.errors import TellError, TransactionAborted
from repro.sql.table import IndexManager
from repro.workloads.loader import BulkLoader
from repro.workloads.ycsb import (
    WORKLOADS,
    YcsbClient,
    build_ycsb_catalog,
    populate_ycsb,
)


class SimulatedYcsb(SimulatedTell):
    """A simulated deployment serving YCSB instead of TPC-C.

    ``config.mix`` selects the YCSB workload letter (A-F);
    ``record_count`` sizes the usertable.
    """

    def __init__(self, config: TellConfig, record_count: int = 10_000,
                 zipf_theta: float = 0.99):
        super().__init__(config)
        self.catalog = build_ycsb_catalog()
        self.record_count = record_count
        self.zipf_theta = zipf_theta
        if config.mix.upper() not in WORKLOADS:
            raise ValueError(f"unknown YCSB workload {config.mix!r}")
        self.workload = WORKLOADS[config.mix.upper()]

    # -- setup -----------------------------------------------------------------

    def load(self) -> Dict[str, int]:
        loader = BulkLoader(self.catalog, IndexManager())
        count = effects.run_direct(
            populate_ycsb(self.catalog, loader, self.record_count,
                          seed=self.config.seed),
            Dispatcher(self.cluster),
        )
        self._populated = True
        return {"usertable": count}

    # -- workload --------------------------------------------------------------

    def _terminal_seed(self, pn_id: int, thread: int) -> int:
        return (self.config.seed * 7919 + pn_id * 211 + thread) & 0x7FFFFFFF

    def _terminal(self, handle, seed: int) -> Generator:  # noqa: ANN001
        pn, pool, cm_index, indexes = handle
        client = YcsbClient(
            self.catalog, indexes, self.record_count, self.workload,
            theta=self.zipf_theta, seed=seed,
        )
        while self.sim.now < self._end_time:
            op, args = client.next_operation()
            started = self.sim.now
            outcome = yield from self._drive(
                pool, cm_index, self._ycsb_script(pn, client, op, args),
                pn_id=pn.pn_id,
            )
            if started >= self._warmup_end:
                self.metrics.record(op, outcome, self.sim.now - started)

    def _ycsb_script(self, pn, client: YcsbClient, op: str,
                     args: Dict) -> Generator:  # noqa: ANN001
        config = self.config
        try:
            txn = yield from pn.begin()
        except TellError:
            return "conflict"
        if config.txn_overhead_us > 0:
            yield effects.Compute(config.txn_overhead_us)
        try:
            yield from client.execute(txn, op, args)
            if config.cpu_per_row_us > 0:
                yield effects.Compute(config.cpu_per_row_us)
        except TransactionAborted:
            return "conflict"
        except TellError:
            yield from txn.abort()
            return "conflict"
        try:
            yield from txn.commit()
        except TransactionAborted:
            return "conflict"
        return "committed"
