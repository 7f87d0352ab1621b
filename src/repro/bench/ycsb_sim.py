"""Simulated Tell deployment running the YCSB-style workload.

Reuses the TPC-C deployment's fabric, drivers, ``run()`` and recovery; only
the catalog, population, and each terminal's transactions differ.  The
point of the experiment: a zipfian key-value workload has no
partitionable structure at all, and the shared-data architecture's
scaling is unaffected -- "no assumptions on the workload" (Section 2.1)
made measurable.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterator, Sequence, Tuple

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.simcluster import SimulatedTell
from repro.core.transaction import Transaction
from repro.dispatch import Dispatcher, Interceptor
from repro.runtime.deployment import PnHandle
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
                 zipf_theta: float = 0.99,
                 interceptors: Sequence[Interceptor] = ()):
        super().__init__(config, interceptors=interceptors)
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

    def _transactions(self, handle: PnHandle,
                      seed: int) -> Iterator[Tuple[str, Callable]]:
        """One terminal's operations from its own :class:`YcsbClient`."""
        client = YcsbClient(
            self.catalog, handle[3], self.record_count, self.workload,
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
