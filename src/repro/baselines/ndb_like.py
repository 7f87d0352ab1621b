"""MySQL-Cluster-like baseline: federated SQL nodes over NDB data nodes.

MySQL Cluster executes transactions concurrently with row-level locking
and two-phase commit.  Single-partition transactions are not blocked by
distributed ones (which is why the paper finds it "slightly faster than
VoltDB" under the standard mix), but *every* row access crosses the SQL
node -> data node boundary, paying federation CPU and a network hop, and
writes are synchronously replicated.  The resulting per-operation cost is
what keeps throughput almost flat regardless of cluster size (Figures
8/9: ~84 k TpmC standard, +1-2 % shardable).
"""

from __future__ import annotations

from typing import Generator, List

from repro.baselines.common import BaselineConfig, BaselineEngine, TxnWork
from repro.runtime.fabric import CorePool
from repro.sim.kernel import Delay

#: CPU burned per row operation across SQL + data node (us).
OP_CPU_US = 320.0
#: Extra CPU per row write per synchronous replica (us).
OP_REPLICA_US = 110.0
#: TCP round trip between SQL node and data node (us).
OP_RTT_US = 90.0
#: Extra rounds for two-phase commit of a distributed transaction.
TPC_ROUND_US = 450.0
#: Row operations batched per network round trip by the NDB API.
OPS_PER_ROUND = 4.0
#: The transaction-coordination tier (TC threads + SQL-node commit
#: handling) does not grow with data nodes in the paper's setup; it caps
#: cluster throughput and is why the MySQL curve stays nearly flat.
TC_POOL_SIZE = 4
TC_SERVICE_US = 1100.0


class MySqlClusterLike(BaselineEngine):
    name = "mysql-cluster"

    def __init__(self, config: BaselineConfig):
        super().__init__(config)
        # One pool models the combined CPU of SQL + data nodes.
        self.cpu = CorePool(config.total_cores)
        self.coordinator = CorePool(TC_POOL_SIZE)

    def execute(self, work: TxnWork) -> Generator:
        config = self.config
        replicas = max(0, config.replication_factor - 1)
        cpu_us = (
            work.rows * OP_CPU_US + work.rows_written * OP_REPLICA_US * replicas
        )
        now = self.sim.now
        cpu_done = self.cpu.reserve(now, cpu_us)
        wire_us = OP_RTT_US * (work.rows / OPS_PER_ROUND)
        if work.is_distributed:
            wire_us += 2 * TPC_ROUND_US  # prepare + commit rounds
        if work.rows_written:
            tc_done = self.coordinator.reserve(cpu_done, TC_SERVICE_US)
        else:
            tc_done = cpu_done
        end = tc_done + wire_us
        yield Delay(end - now)
        return "committed"
