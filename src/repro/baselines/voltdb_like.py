"""VoltDB-like baseline: serial partitions, cluster-blocking MP txns.

VoltDB executes transactions serially on each partition without any
concurrency control; single-partition (SP) transactions are extremely
cheap.  A multi-partition (MP) transaction, however, is coordinated by a
single initiator and *blocks every partition* until it completes -- with
network round trips in the middle.  Under the TPC-C standard mix (~11 %
cross-warehouse transactions) the MP pipeline is the whole system's
bottleneck, and it gets *worse* with more nodes because coordination
spans more machines: exactly the declining curve of Figure 8.  Under the
shardable mix (Figure 9) everything is SP and throughput scales with
partitions.

Calibration anchors (from the paper's numbers): a site executes on the
order of 1k TPC-C transactions per second; MP coordination costs a few
milliseconds and grows with cluster size; K-safety replication costs
~7 % per additional copy on the write path.
"""

from __future__ import annotations

from typing import Generator, List

from repro.baselines.common import BaselineConfig, BaselineEngine, TxnWork
from repro.runtime.fabric import CorePool
from repro.sim.kernel import Delay

#: Per-partition execution cost: fixed dispatch + per-row work (us).
SP_BASE_US = 300.0
SP_PER_ROW_US = 25.0
#: MP coordination: fixed + per-node cost (us); holds ALL partitions.
MP_BASE_US = 2000.0
MP_PER_NODE_US = 800.0
#: Throughput cost of each additional synchronous replica (K-safety).
REPLICA_WRITE_FACTOR = 0.075
SITES_PER_NODE = 6


class VoltDBLike(BaselineEngine):
    name = "voltdb"

    def __init__(self, config: BaselineConfig):
        super().__init__(config)
        self.n_partitions = config.nodes * SITES_PER_NODE
        self.partitions: List[CorePool] = [
            CorePool(1) for _ in range(self.n_partitions)
        ]

    def _partition_of(self, warehouse: int) -> int:
        return (warehouse - 1) % self.n_partitions

    def _service_us(self, work: TxnWork) -> float:
        service = SP_BASE_US + SP_PER_ROW_US * work.rows
        if work.rows_written and self.config.replication_factor > 1:
            service *= 1.0 + REPLICA_WRITE_FACTOR * (
                self.config.replication_factor - 1
            )
        return service

    def execute(self, work: TxnWork) -> Generator:
        now = self.sim.now
        involved = {self._partition_of(w) for w in work.warehouses}
        if len(involved) == 1:
            pool = self.partitions[next(iter(involved))]
            end = pool.reserve(now, self._service_us(work))
            yield Delay(end - now)
            return "committed"
        # Multi-partition: the initiator blocks the whole cluster while
        # the coordination rounds run.
        duration = (
            self._service_us(work)
            + MP_BASE_US
            + MP_PER_NODE_US * self.config.nodes
        )
        start = now
        for pool in self.partitions:
            start = max(start, pool.earliest(now))
        end = start + duration
        for pool in self.partitions:
            pool.reserve(start, duration)
        yield Delay(end - now)
        return "committed"
