"""The five frozen workloads of the performance ledger.

Every workload is a *closed loop with zero think time*: each terminal (a
simulator coroutine) issues its next transaction the instant the previous
one finished, so ``clients`` = processing nodes x threads is the whole load
description.  Inputs derive from ``seed`` only.  The simulated duration is
fixed per workload (``sim_ms`` at the benchmark's standard run length) so a
given seed reproduces every simulated statistic bit-for-bit on any commit;
host time is what varies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, List, Sequence, Tuple

from repro import effects
from repro.bench.config import TellConfig
from repro.bench.metrics import TxnMetrics
from repro.bench.simcluster import SimulatedTell
from repro.bench.ycsb_sim import SimulatedYcsb
from repro.errors import TellError, TransactionAborted
from repro.sql import ast_nodes as ast
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import Table
from repro.workloads.tpcc.params import TpccRandom, TpccScale

#: ``--seconds`` at which ``sim_ms`` was tuned to take about that long on
#: the reference sandbox; other values scale the simulated duration
#: linearly.  BENCHMARK.json's ``run_seconds`` carries the same number.
RUN_SECONDS = 8

YCSB_RECORDS = 20_000

#: sql_mixed statement classes: (cards in a deck of 200, SQL text).  Parsed
#: on every execution, as a session would.  ``analytic`` is 0.5 % rather
#: than 1 %: a scan takes 12-20 simulated ms against 3.4 ms for a short
#: statement queued behind it, so at exactly 1 % the 99th percentile would
#: sit on that boundary and jump between the two from seed to seed.
SQL_STATEMENTS: Dict[str, Tuple[int, str]] = {
    "point": (80, "SELECT c_first, c_last, c_balance FROM customer "
                  "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"),
    "byname": (24, "SELECT c_id, c_first, c_balance FROM customer "
                   "WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? "
                   "ORDER BY c_first"),
    "range_agg": (40, "SELECT SUM(ol_amount), COUNT(*) FROM orderline "
                      "WHERE ol_w_id = ? AND ol_d_id = ? "
                      "AND ol_o_id >= ? AND ol_o_id < ?"),
    "update": (53, "UPDATE customer SET c_balance = c_balance + ?, "
                   "c_payment_cnt = c_payment_cnt + 1 "
                   "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"),
    "join": (2, "SELECT o.o_id, ol.ol_number, ol.ol_amount FROM orders o "
                "JOIN orderline ol ON ol.ol_w_id = o.o_w_id "
                "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
                "WHERE o.o_w_id = ? AND o.o_d_id = ? AND o.o_id = ?"),
    "analytic": (1, "SELECT COUNT(*) FROM orderline "
                    "WHERE ol_w_id = ? AND ol_amount >= 9000.0"),
}
#: What every committed ``update`` adds to its customer's balance (exact
#: in binary floating point, so the balance check needs no tolerance).
UPDATE_DELTA = 1.5
RANGE_AGG_ORDERS = 10


class SimulatedSqlMix(SimulatedTell):
    """TPC-C tables served SQL *text*: parse + plan + execute per statement.

    Modelled on :class:`repro.bench.ycsb_sim.SimulatedYcsb`: one
    auto-committed transaction per statement.  ``bad_points`` and
    ``committed_updates`` feed the output checks.
    """

    def __init__(self, config: TellConfig):
        super().__init__(config)
        self.bad_points = 0
        self.committed_updates = 0
        self._deck: List[str] = []

    def _draw_class(self) -> str:
        """The next card of a deck shared by all terminals.

        A join or scan costs as much host time as hundreds of point
        selects; drawn at random, their count (about ten per run) swings
        throughput by a third from seed to seed.  The deck deals every
        class exactly its share, evenly spaced (smooth weighted
        round-robin); the seed drives the statement parameters only.
        """
        if not self._deck:
            self._deck = _smooth_deck(
                {name: cards for name, (cards, _text) in SQL_STATEMENTS.items()}
            )
        return self._deck.pop()

    def run(self) -> TxnMetrics:
        if not self._populated:
            self.load()
        config = self.config
        end_time = config.duration_us
        warmup_end = min(config.warmup_us, end_time)
        for pn_id in range(config.processing_nodes):
            handle = self._make_pn(pn_id)
            self._pn_handles.append(handle)
            for thread in range(config.threads_per_pn):
                seed = (config.seed * 6_151 + pn_id * 193 + thread) & 0x7FFFFFFF
                self.sim.spawn(
                    self._sql_terminal(handle, seed, warmup_end, end_time),
                    name=f"sql-pn{pn_id}-t{thread}",
                )
        self.sim.run(until=end_time)
        self.metrics.measured_time_us = end_time - warmup_end
        return self.metrics

    def _sql_terminal(self, handle, seed: int, warmup_end: float,
                      end_time: float) -> Generator:  # noqa: ANN001
        pn, pool, cm_index, indexes = handle
        params = _SqlParams(self.config.scale, seed)
        while self.sim.now < end_time:
            name = self._draw_class()
            started = self.sim.now
            outcome = yield from self._drive(
                pool, cm_index,
                self._sql_script(pn, indexes, name, params.draw(name)),
                pn_id=pn.pn_id,
            )
            if started >= warmup_end:
                self.metrics.record(name, outcome, self.sim.now - started)

    def _sql_script(self, pn, indexes, name: str,
                    params: Sequence[Any]) -> Generator:  # noqa: ANN001
        try:
            txn = yield from pn.begin()
        except TellError:
            return "conflict"
        if self.config.txn_overhead_us > 0:
            yield effects.Compute(self.config.txn_overhead_us)
        statement = parse(SQL_STATEMENTS[name][1])
        executor = StatementExecutor(
            lambda table: Table(self.catalog.table(table), txn, indexes),
            params,
        )
        try:
            if isinstance(statement, ast.Select):
                result = yield from executor.select(statement)
            else:
                result = yield from executor.update(statement)
        except TransactionAborted:
            return "conflict"
        except TellError:
            yield from txn.abort()
            return "conflict"
        try:
            yield from txn.commit()
        except TransactionAborted:
            return "conflict"
        if name == "point" and len(result) != 1:
            self.bad_points += 1
        elif name == "update":
            self.committed_updates += 1
        return "committed"


def _smooth_deck(cards: Dict[str, int]) -> List[str]:
    total = sum(cards.values())
    credit = dict.fromkeys(cards, 0)
    deck: List[str] = []
    for _ in range(total):
        for name, share in cards.items():
            credit[name] += share
        name = max(credit, key=credit.__getitem__)
        credit[name] -= total
        deck.append(name)
    return deck


class _SqlParams:
    """Statement parameters with TPC-C's skew (NURand customers/names)."""

    def __init__(self, scale: TpccScale, seed: int):
        self.scale = scale
        self.random = TpccRandom(scale, seed)

    def draw(self, name: str) -> List[Any]:
        rnd, scale = self.random, self.scale
        w_id = rnd.uniform(1, scale.warehouses)
        d_id = rnd.uniform(1, scale.districts_per_warehouse)
        if name == "point":
            return [w_id, d_id, rnd.customer_id()]
        if name == "byname":
            return [w_id, d_id, rnd.random_last_name()]
        if name == "update":
            return [UPDATE_DELTA, w_id, d_id, rnd.customer_id()]
        if name == "range_agg":
            low = rnd.uniform(
                1, scale.initial_orders_per_district - RANGE_AGG_ORDERS + 1
            )
            return [w_id, d_id, low, low + RANGE_AGG_ORDERS]
        if name == "join":
            return [w_id, d_id,
                    rnd.uniform(1, scale.initial_orders_per_district)]
        return [w_id]  # analytic


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str               # tpcc | sql | ycsb: selects deployment + checks
    sim_ms: float           # simulated duration at --seconds == RUN_SECONDS
    config: Dict[str, Any]  # frozen TellConfig arguments

    @property
    def clients(self) -> int:
        return self.config["processing_nodes"] * self.config["threads_per_pn"]

    def build(self, seed: int, seconds: float, interceptors: Sequence[Any] = (),
              **overrides) -> SimulatedTell:
        """A fresh, unloaded deployment; warm-up is a tenth of the run.

        ``interceptors`` and ``overrides`` exist for the tooling-overhead
        rows (sanitizer chain, ``observability=True``), which are measured
        on a TPC-C workload only.
        """
        duration = self.sim_ms * 1000.0 * seconds / RUN_SECONDS
        config = TellConfig(
            **{**self.config, **overrides},
            duration_us=duration, warmup_us=duration / 10, seed=seed,
        )
        if self.kind == "ycsb":
            return SimulatedYcsb(config, record_count=YCSB_RECORDS,
                                 zipf_theta=0.99)
        if self.kind == "sql":
            return SimulatedSqlMix(config)
        return SimulatedTell(config, interceptors=interceptors)

    def describe(self) -> Dict[str, Any]:
        """The frozen configuration, JSON-ready."""
        config = dict(self.config)
        if "scale" in config:
            config["scale"] = asdict(config["scale"])
        return {
            "why": self.why, "kind": self.kind, "clients": self.clients,
            "loop": "closed, zero think time",
            "sim_ms_at_run_seconds": self.sim_ms, "config": config,
        }


_SCALEOUT_SCALE = TpccScale(
    warehouses=64, districts_per_warehouse=10, customers_per_district=12,
    initial_orders_per_district=12, items=1000,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "tpcc_contended",
            "2 warehouses under 16 clients: half of all transactions abort, "
            "so core (LL/SC, abort, retry) and sql.table row handling "
            "dominate; wasted work shows here",
            "tpcc", 320.0,
            dict(processing_nodes=2, storage_nodes=3, threads_per_pn=8,
                 scale=TpccScale.small(2)),
        ),
        Workload(
            "tpcc_scaleout64",
            "64 nodes, RF3, 64 clients, low contention: store and fabric "
            "dominate; the only workload with replica copies, large setup "
            "and large memory",
            "tpcc", 50.0,
            dict(processing_nodes=16, storage_nodes=48, threads_per_pn=4,
                 replication_factor=3, scale=_SCALEOUT_SCALE),
        ),
        Workload(
            "tpcc_readmostly_sb",
            "read-intensive mix through the shared record buffer: index "
            "range traversals and buffer hits; a buffer or index change "
            "shows here and must not move tpcc_contended",
            "tpcc", 210.0,
            dict(processing_nodes=4, storage_nodes=7, threads_per_pn=8,
                 scale=TpccScale.small(8), buffering="sb",
                 mix="read-intensive"),
        ),
        Workload(
            "sql_mixed",
            "SQL text through parser, planner and executor (six statement "
            "classes incl. join and scan): the only workload where "
            "repro.sql is most of the host time",
            "sql", 40.0,
            dict(processing_nodes=2, storage_nodes=5, threads_per_pn=8,
                 scale=TpccScale.small(4)),
        ),
        Workload(
            "ycsb_a_zipf",
            "one-row zipfian read/update transactions: kernel, request "
            "path and commit manager dominate; SQL changes must not move "
            "it",
            "ycsb", 260.0,
            dict(processing_nodes=4, storage_nodes=5, threads_per_pn=8,
                 mix="A"),
        ),
    )
}
