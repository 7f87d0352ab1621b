"""Shared machinery for the baseline engines.

Each baseline is a closed-loop simulation: terminal processes draw
transaction parameters from the *same* TPC-C generator Tell uses, derive
the transaction's work profile (rows touched, warehouses involved), and
submit it to the engine, which decides when it completes.  Conflict and
blocking behaviour therefore comes from real TPC-C access patterns (e.g.
the actual ~11% cross-warehouse rate of the standard mix), not from a
hard-coded constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Set

from repro.bench.metrics import TxnMetrics
from repro.sim.kernel import Simulator
from repro.workloads.tpcc.mixes import MIXES, TpccMix
from repro.workloads.tpcc.params import (
    DeliveryParams,
    NewOrderParams,
    OrderStatusParams,
    ParamGenerator,
    PaymentParams,
    StockLevelParams,
    TpccScale,
)


@dataclass
class TxnWork:
    """What a transaction does, independent of the executing engine."""

    name: str
    home_warehouse: int
    warehouses: Set[int]
    rows_read: int
    rows_written: int

    @property
    def is_distributed(self) -> bool:
        return len(self.warehouses) > 1

    @property
    def rows(self) -> int:
        return self.rows_read + self.rows_written


def txn_work(name: str, params, scale: TpccScale) -> TxnWork:  # noqa: ANN001
    """Derive the work profile from generated parameters."""
    if isinstance(params, NewOrderParams):
        warehouses = {params.w_id} | {supply for _i, supply, _q in params.items}
        n_items = len(params.items)
        return TxnWork(name, params.w_id, warehouses,
                       rows_read=3 + 2 * n_items,
                       rows_written=2 + 2 * n_items + n_items)
    if isinstance(params, PaymentParams):
        warehouses = {params.w_id, params.c_w_id}
        return TxnWork(name, params.w_id, warehouses, rows_read=4, rows_written=4)
    if isinstance(params, OrderStatusParams):
        return TxnWork(name, params.w_id, {params.w_id},
                       rows_read=13, rows_written=0)
    if isinstance(params, DeliveryParams):
        districts = scale.districts_per_warehouse
        return TxnWork(name, params.w_id, {params.w_id},
                       rows_read=4 * districts, rows_written=13 * districts)
    if isinstance(params, StockLevelParams):
        return TxnWork(name, params.w_id, {params.w_id},
                       rows_read=40, rows_written=0)
    raise TypeError(f"unknown params {params!r}")


@dataclass
class BaselineConfig:
    """Deployment shape shared by the baseline engines."""

    nodes: int = 3
    cores_per_node: int = 8
    replication_factor: int = 3
    scale: TpccScale = field(default_factory=lambda: TpccScale.small(8))
    mix: str = "standard"
    terminals: int = 64
    duration_us: float = 1_000_000.0
    warmup_us: float = 100_000.0
    seed: int = 1

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


class BaselineEngine:
    """Base class: terminal loop + metrics; engines implement execute(),
    which the terminal loop calls once per engine-independent
    :class:`TxnWork`."""

    name = "baseline"

    def __init__(self, config: BaselineConfig):
        self.config = config
        self.sim = Simulator()
        self.metrics = TxnMetrics()
        self.mix: TpccMix = MIXES[config.mix]

    def execute(self, work: TxnWork) -> Generator:
        """Simulate one transaction; returns 'committed' or 'conflict'."""
        raise NotImplementedError

    def _terminal(self, seed: int, warmup_end: float, end_time: float) -> Generator:
        rng = random.Random(seed)
        # Paper setup: each terminal has a home warehouse.
        home = rng.randint(1, self.config.scale.warehouses)
        params_gen = ParamGenerator(
            self.config.scale,
            seed=seed ^ 0xC0FFEE,
            remote_accesses=self.mix.remote_accesses,
            home_warehouse=home,
        )
        while self.sim.now < end_time:
            txn_name = self.mix.pick(rng)
            params = getattr(params_gen, txn_name)()
            work = txn_work(txn_name, params, self.config.scale)
            started = self.sim.now
            outcome = yield from self.execute(work)
            if getattr(params, "rollback", False) and outcome == "committed":
                outcome = "user_abort"  # the spec's 1% new-order rollback
            if started >= warmup_end:
                self.metrics.record(txn_name, outcome, self.sim.now - started)

    def run(self) -> TxnMetrics:
        config = self.config
        warmup_end = min(config.warmup_us, config.duration_us)
        for terminal in range(config.terminals):
            seed = (config.seed * 7919 + terminal * 104729) & 0x7FFFFFFF
            self.sim.spawn(
                self._terminal(seed, warmup_end, config.duration_us),
                name=f"{self.name}-terminal-{terminal}",
            )
        self.sim.run(until=config.duration_us)
        self.metrics.measured_time_us = config.duration_us - warmup_end
        return self.metrics
