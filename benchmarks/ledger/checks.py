"""Output checks: is the database the run left behind a correct one?

Run after ``deployment.run()`` and outside every timed region.  The
simulation stops with transactions in the air, exactly like crashed
processing nodes; ``quiesce()`` runs the paper's recovery first, then a
fresh processing node reads the committed state through the direct runner.
Each check returns a list of human-readable failures (empty = pass).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.api.runner import DirectRunner, Router
from repro.bench.simcluster import SimulatedTell
from repro.core.processing_node import ProcessingNode
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import IndexManager, Table

from workloads import UPDATE_DELTA, YCSB_RECORDS, Workload

_CHECKER_PN_ID = 9_999


class _Reader:
    """One read-only transaction over the post-run committed state."""

    def __init__(self, deployment: SimulatedTell):
        deployment.quiesce()
        self.catalog = deployment.catalog
        self.pn = ProcessingNode(_CHECKER_PN_ID)
        self.runner = DirectRunner(Router(
            deployment.cluster, deployment.commit_managers[0],
            pn_id=_CHECKER_PN_ID,
        ))
        self.txn = self.runner.run(self.pn.begin())
        self.indexes = IndexManager()

    def table(self, name: str) -> Table:
        return Table(self.catalog.table(name), self.txn, self.indexes)

    def rows(self, name: str) -> List[Dict[str, Any]]:
        schema = self.catalog.table(name)
        pairs = self.runner.run(self.table(name).scan())
        return [schema.row_to_dict(row) for _rid, row in pairs]

    def query(self, sql: str) -> Tuple[Any, ...]:
        executor = StatementExecutor(self.table)
        return self.runner.run(executor.select(parse(sql))).one()


def check_tpcc(deployment: SimulatedTell) -> List[str]:
    """TPC-C consistency conditions 1-4 (the queries of
    ``tests/test_tpcc_consistency.py``, per district)."""
    reader = _Reader(deployment)
    failures: List[str] = []
    next_o_id = {
        (d["d_w_id"], d["d_id"]): d["d_next_o_id"]
        for d in reader.rows("district")
    }
    order_ids: Dict[Tuple[int, int], List[int]] = {}
    ol_expected: Dict[Tuple[int, int], int] = {}
    for order in reader.rows("orders"):
        key = (order["o_w_id"], order["o_d_id"])
        order_ids.setdefault(key, []).append(order["o_id"])
        ol_expected[key] = ol_expected.get(key, 0) + order["o_ol_cnt"]
    neworder_ids: Dict[Tuple[int, int], List[int]] = {}
    for row in reader.rows("neworder"):
        neworder_ids.setdefault(
            (row["no_w_id"], row["no_d_id"]), []
        ).append(row["no_o_id"])
    ol_actual: Dict[Tuple[int, int], int] = {}
    for line in reader.rows("orderline"):
        key = (line["ol_w_id"], line["ol_d_id"])
        ol_actual[key] = ol_actual.get(key, 0) + 1

    for key, expected_next in next_o_id.items():
        ids = sorted(order_ids.get(key, []))
        pending = sorted(neworder_ids.get(key, []))
        if not ids or ids[-1] != expected_next - 1:
            failures.append(f"c1 district {key}: max(o_id) != d_next_o_id-1")
        if pending and pending[-1] != expected_next - 1:
            failures.append(f"c1 district {key}: max(no_o_id) != d_next_o_id-1")
        if ids != list(range(1, len(ids) + 1)):
            failures.append(f"c2 district {key}: order ids not 1..n")
        if pending and pending != list(
                range(pending[0], pending[0] + len(pending))):
            failures.append(f"c3 district {key}: new-order ids not contiguous")
        if ol_actual.get(key, 0) != ol_expected.get(key, 0):
            failures.append(f"c4 district {key}: sum(o_ol_cnt) != orderlines")
    return failures


def check_sql(deployment: SimulatedTell) -> List[str]:
    """Every point select returned one row; the customer balances moved by
    exactly UPDATE_DELTA per committed update.

    The database counts its own committed updates in ``c_payment_cnt``
    (loaded as 1).  A commit acknowledged by the commit manager whose
    terminal was still waiting for the reply when the simulation stopped
    is durable but uncounted by the terminal, so the terminal-side count
    may trail by at most one per client.
    """
    failures: List[str] = []
    if deployment.bad_points:
        failures.append(
            f"{deployment.bad_points} point selects did not return 1 row"
        )
    balance, payments, customers = _Reader(deployment).query(
        "SELECT SUM(c_balance), SUM(c_payment_cnt), COUNT(*) FROM customer"
    )
    updates = payments - customers
    moved = balance - (-10.0 * customers)
    if abs(moved - UPDATE_DELTA * updates) > 1e-6:
        failures.append(
            f"sum(c_balance) moved {moved}, expected {UPDATE_DELTA} x {updates}"
        )
    config = deployment.config
    clients = config.processing_nodes * config.threads_per_pn
    counted = deployment.committed_updates
    if not counted <= updates <= counted + clients:
        failures.append(
            f"database holds {updates} updates, terminals committed {counted}"
        )
    return failures


def check_ycsb(deployment: SimulatedTell) -> List[str]:
    count = len(_Reader(deployment).rows("usertable"))
    if count != YCSB_RECORDS:
        return [f"usertable holds {count} records, loaded {YCSB_RECORDS}"]
    return []


_CHECKS = {"tpcc": check_tpcc, "sql": check_sql, "ycsb": check_ycsb}


def check_outputs(workload: Workload, deployment: SimulatedTell) -> List[str]:
    return _CHECKS[workload.kind](deployment)
