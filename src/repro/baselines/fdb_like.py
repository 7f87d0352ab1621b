"""FoundationDB-like baseline: shared-data, but a chatty SQL layer.

FoundationDB shares Tell's architecture on paper (decoupled SQL layer
over a transactional key-value store, optimistic MVCC), yet the paper
measures it a factor ~30 below Tell.  Section 6.5 attributes the gap to
implementation: the young SQL layer issues *one key-value round trip per
row* (no batching), burns substantial CPU per operation, and funnels
commits through a centralized pipeline (get-read-version / resolver),
with a bounded number of in-flight transactions per SQL-layer node.

The model: each transaction occupies one of the node's transaction slots
for ``rows x per-op latency`` plus the commit round through the central
sequencer pool.  Throughput therefore scales with nodes (slots) but sits
orders of magnitude below a batching engine -- reproducing both the
scaling and the gap of Figure 8, and the ~150-250 ms latencies of
Table 4.
"""

from __future__ import annotations

from typing import Generator

from repro.baselines.common import BaselineConfig, BaselineEngine, TxnWork
from repro.runtime.fabric import CorePool
from repro.sim.kernel import Delay

#: Per-row cost in the SQL layer: interpretation + one unbatched KV
#: round trip (us).
PER_ROW_US = 3500.0
#: Commit: get-read-version + resolver round through the central pipeline.
COMMIT_FIXED_US = 3000.0
#: Central sequencer/resolver service per commit (us).
SEQUENCER_US = 50.0
#: Concurrent transactions each SQL-layer node sustains.
SLOTS_PER_NODE = 6


class FoundationDBLike(BaselineEngine):
    name = "foundationdb"

    def __init__(self, config: BaselineConfig):
        super().__init__(config)
        self.slots = CorePool(config.nodes * SLOTS_PER_NODE)
        self.sequencer = CorePool(1)

    def execute(self, work: TxnWork) -> Generator:
        now = self.sim.now
        duration = work.rows * PER_ROW_US + COMMIT_FIXED_US
        slot_done = self.slots.reserve(now, duration)
        end = self.sequencer.reserve(slot_done, SEQUENCER_US)
        yield Delay(end - now)
        return "committed"
