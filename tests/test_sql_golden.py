"""Golden results for the six ``sql_mixed`` statement texts (and one more).

The statements the performance ledger's ``sql_mixed`` workload runs (texts
copied: ``tests/`` does not import ``benchmarks/``) against a tiny TPC-C
database with fixed parameters, straight through :class:`StatementExecutor`.
Columns, rows *in order* and the number of requests per class are pinned,
once in autocommit and once inside a transaction that has already inserted,
updated and deleted ``orderline`` rows -- there the scan and index-range
results must interleave the transaction's own rows, so no "input is
already ordered" shortcut may fire.  Recorded before the executor moved
from dict environments to positional rows; any rewrite of ``repro.sql``
has to reproduce them.  The two ``join`` entries were re-recorded when the
join began to probe ``orderline_pk`` through the prefix its ON clause
binds (see the reasons beside them); nothing in the mix sends a ``Scan``
since.
"""

import ast as python_ast
import collections
import pathlib

import pytest

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.processing_node import ProcessingNode
from repro.dispatch import Interceptor
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.executor import StatementExecutor
from repro.sql.parser import parse
from repro.sql.table import IndexManager, Table
from repro.store.cluster import StorageCluster
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.params import TpccScale
from repro.workloads.tpcc.population import populate
from repro.workloads.tpcc.schema import build_tpcc_catalog

STATEMENTS = {
    "point": "SELECT c_first, c_last, c_balance FROM customer "
             "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
    "byname": "SELECT c_id, c_first, c_balance FROM customer "
              "WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? "
              "ORDER BY c_first",
    "range_agg": "SELECT SUM(ol_amount), COUNT(*) FROM orderline "
                 "WHERE ol_w_id = ? AND ol_d_id = ? "
                 "AND ol_o_id >= ? AND ol_o_id < ?",
    "update": "UPDATE customer SET c_balance = c_balance + ?, "
              "c_payment_cnt = c_payment_cnt + 1 "
              "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
    "join": "SELECT o.o_id, ol.ol_number, ol.ol_amount FROM orders o "
            "JOIN orderline ol ON ol.ol_w_id = o.o_w_id "
            "AND ol.ol_d_id = o.o_d_id AND ol.ol_o_id = o.o_id "
            "WHERE o.o_w_id = ? AND o.o_d_id = ? AND o.o_id = ?",
    "analytic": "SELECT COUNT(*) FROM orderline "
                "WHERE ol_w_id = ? AND ol_amount >= 9000.0",
    # Not in the ledger's mix: the aggregates above hide the order an index
    # range returns its rows in, this shows it.
    "lines": "SELECT ol_number, ol_amount FROM orderline "
             "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
}

#: ``update`` runs before ``point`` on the same customer, so the point
#: select also pins that the update's SET expressions were applied.
ORDER = ("update", "point", "byname", "range_agg", "join", "analytic",
         "lines")

PARAMS = {
    "point": [2, 3, 7],
    "byname": [1, 2, "BARBARPRES"],
    "range_agg": [1, 2, 3, 13],
    "update": [1.5, 2, 3, 7],
    "join": [1, 2, 11],
    "analytic": [1],
    "lines": [1, 2, 11],
}

#: What the second scenario's transaction does first.  The inserted rows
#: get the table's largest rids (last in scan order) but the *smallest*
#: and the largest line numbers of order (1, 2, 11) (first and last in
#: index order); the update moves a row over the analytic threshold
#: without moving it in either order; the delete removes one.
LOCAL_DML = [
    ("INSERT INTO orderline VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
     [1, 2, 11, 0, 5, 1, 0.0, 5, 9500.5, "inserted-first"]),
    ("INSERT INTO orderline VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
     [1, 2, 11, 99, 6, 1, 0.0, 5, 12.25, "inserted-last"]),
    ("UPDATE orderline SET ol_amount = ? WHERE ol_w_id = ? AND ol_d_id = ? "
     "AND ol_o_id = ? AND ol_number = ?", [9100.25, 1, 2, 11, 3]),
    ("DELETE FROM orderline WHERE ol_w_id = ? AND ol_d_id = ? "
     "AND ol_o_id = ? AND ol_number = ?", [1, 2, 11, 2]),
]

#: name -> (columns, rows, requests); recorded at the commit before the
#: positional executor.  ``Batch.ops`` is the number of keys the
#: batches carried in total (one operation each).
GOLDEN_AUTOCOMMIT = {
    'update': (
        [],
        1,
        {'Get': 2, 'Batch': 1, 'Batch.ops': 1},
    ),
    'point': (
        ['c_first', 'c_last', 'c_balance'],
        [('ncqvhgqtex', 'BARBARANTI', -8.5)],
        {'Get': 1, 'Batch': 1, 'Batch.ops': 1},
    ),
    'byname': (
        ['c_id', 'c_first', 'c_balance'],
        [(5, 'phmcouwody', -10.0)],
        {'Get': 2, 'Batch': 1, 'Batch.ops': 1},
    ),
    'range_agg': (
        ['sum(ol_amount)', 'count(*)'],
        [(174139.40000000005, 98)],
        {'Get': 4, 'Batch': 1, 'Batch.ops': 98},
    ),
    'join': (
        ['o_id', 'ol_number', 'ol_amount'],
        [
            (11, 1, 437.21),
            (11, 2, 4000.32),
            (11, 3, 5614.78),
            (11, 4, 7336.16),
            (11, 5, 1725.31),
            (11, 6, 1722.51),
        ],
        # Re-recorded: the prefix probe of orderline_pk (a leaf fetch and
        # one batch of six row reads) replaced the unfiltered Scan.
        {'Get': 3, 'Batch': 2, 'Batch.ops': 7},
    ),
    'analytic': (
        ['count(*)'],
        [(20,)],
        {'Get': 11, 'Batch': 1, 'Batch.ops': 488},
    ),
    'lines': (
        ['ol_number', 'ol_amount'],
        [
            (1, 437.21),
            (2, 4000.32),
            (3, 5614.78),
            (4, 7336.16),
            (5, 1725.31),
            (6, 1722.51),
        ],
        {'Get': 1, 'Batch': 1, 'Batch.ops': 6},
    ),
}
GOLDEN_IN_TRANSACTION = {
    'update': (
        [],
        1,
        {'Get': 2, 'Batch': 1, 'Batch.ops': 1},
    ),
    'point': (
        ['c_first', 'c_last', 'c_balance'],
        [('ncqvhgqtex', 'BARBARANTI', -8.5)],
        {'Get': 1},
    ),
    'byname': (
        ['c_id', 'c_first', 'c_balance'],
        [(5, 'phmcouwody', -10.0)],
        {'Get': 2, 'Batch': 1, 'Batch.ops': 1},
    ),
    'range_agg': (
        ['sum(ol_amount)', 'count(*)'],
        [(183137.30000000002, 99)],
        {'Get': 3, 'Batch': 1, 'Batch.ops': 96},
    ),
    'join': (
        ['o_id', 'ol_number', 'ol_amount'],
        # Re-recorded: an index probe returns index-key order with the
        # transaction's own rows merged in (JOIN_ROWS_IN_SCAN_ORDER is what
        # the hash join over a scan returned) and sends no Scan; the rows
        # themselves are in the transaction's cache by now.
        [
            (11, 0, 9500.5),
            (11, 1, 437.21),
            (11, 3, 9100.25),
            (11, 4, 7336.16),
            (11, 5, 1725.31),
            (11, 6, 1722.51),
            (11, 99, 12.25),
        ],
        {'Get': 3, 'Batch': 1, 'Batch.ops': 1},
    ),
    'analytic': (
        ['count(*)'],
        [(22,)],
        {'Get': 11, 'Batch': 1, 'Batch.ops': 390},
    ),
    'lines': (
        ['ol_number', 'ol_amount'],
        [
            (0, 9500.5),
            (1, 437.21),
            (3, 9100.25),
            (4, 7336.16),
            (5, 1725.31),
            (6, 1722.51),
            (99, 12.25),
        ],
        {'Get': 1},
    ),
}

#: The in-transaction ``join`` rows as recorded before the join went
#: through the index: rid order, the transaction's own inserts last.
JOIN_ROWS_IN_SCAN_ORDER = [
    (11, 1, 437.21),
    (11, 3, 9100.25),
    (11, 4, 7336.16),
    (11, 5, 1725.31),
    (11, 6, 1722.51),
    (11, 0, 9500.5),
    (11, 99, 12.25),
]


class _CountRequests(Interceptor):
    """Counts every request by class name, plus the ops batches carry."""

    def __init__(self):
        self.counts = collections.Counter()

    def intercept(self, request, ctx, next):
        self.counts[type(request).__name__] += 1
        if isinstance(request, effects.Batch):
            self.counts["Batch.ops"] += len(request.keys)
        return (yield from next(request))


class _TinyTpcc:
    """A freshly populated tiny TPC-C database behind a counting router."""

    def __init__(self):
        cluster = StorageCluster(n_nodes=3)
        self.catalog = build_tpcc_catalog()
        self.indexes = IndexManager()
        effects.run_direct(
            populate(BulkLoader(self.catalog, self.indexes),
                     TpccScale.tiny(2), seed=3),
            Dispatcher(cluster),
        )
        self.counter = _CountRequests()
        self.pn = ProcessingNode(0)
        self.dispatcher = Dispatcher(
            cluster, CommitManager(0, cluster.execute), pn_id=0,
            interceptors=[self.counter],
        )

    def begin(self):
        return run_direct(self.pn.begin(), self.dispatcher)

    def execute(self, txn, text, params):
        """Run one statement inside ``txn``; (columns, rows, requests)."""
        statement = parse(text)
        executor = StatementExecutor(
            lambda name: Table(self.catalog.table(name), txn, self.indexes),
            params,
        )
        method = {
            ast.Select: executor.select, ast.Insert: executor.insert,
            ast.Update: executor.update, ast.Delete: executor.delete,
        }[type(statement)]
        self.counter.counts.clear()
        result = run_direct(method(statement), self.dispatcher)
        if not isinstance(statement, ast.Select):
            return [], result.rowcount, dict(self.counter.counts)
        return result.columns, result.rows, dict(self.counter.counts)


def run_autocommit():
    db = _TinyTpcc()
    observed = {}
    for name in ORDER:
        txn = db.begin()
        observed[name] = db.execute(txn, STATEMENTS[name], PARAMS[name])
        run_direct(txn.commit(), db.dispatcher)
    return observed


def run_in_transaction():
    db = _TinyTpcc()
    txn = db.begin()
    for text, params in LOCAL_DML:
        assert db.execute(txn, text, params)[1] == 1
    observed = {
        name: db.execute(txn, STATEMENTS[name], PARAMS[name]) for name in ORDER
    }
    run_direct(txn.abort(), db.dispatcher)
    return observed


@pytest.mark.parametrize("name", ORDER)
def test_autocommit_results_and_requests(name):
    assert run_autocommit()[name] == GOLDEN_AUTOCOMMIT[name]


@pytest.mark.parametrize("name", ORDER)
def test_results_and_requests_over_local_writes(name):
    assert run_in_transaction()[name] == GOLDEN_IN_TRANSACTION[name]


def test_the_index_join_returns_the_rows_the_scan_join_did():
    """The statement has no ORDER BY: the probe moved rows, not changed them."""
    rows = GOLDEN_IN_TRANSACTION["join"][1]
    assert rows != JOIN_ROWS_IN_SCAN_ORDER
    assert sorted(rows) == sorted(JOIN_ROWS_IN_SCAN_ORDER)


def test_no_sql_mixed_statement_scans():
    """The goldens equal what runs (above), and none of them lists a Scan."""
    for golden in (GOLDEN_AUTOCOMMIT, GOLDEN_IN_TRANSACTION):
        assert set(golden) == set(ORDER)
        for name, (_columns, _rows, requests) in golden.items():
            assert "Scan" not in requests, name


def test_statement_texts_equal_the_ledgers():
    """``STATEMENTS`` is a copy; read the ledger's source, import nothing."""
    source = pathlib.Path(__file__).parent.parent / "benchmarks/ledger/workloads.py"
    declared = [
        node.value for node in python_ast.parse(source.read_text()).body
        if isinstance(node, python_ast.AnnAssign)
        and getattr(node.target, "id", None) == "SQL_STATEMENTS"
    ]
    assert len(declared) == 1, "workloads.py no longer declares SQL_STATEMENTS once"
    ledger = {
        name: text
        for name, (_cards, text) in python_ast.literal_eval(declared[0]).items()
    }
    copied = {name: text for name, text in STATEMENTS.items() if name != "lines"}
    assert ledger == copied


class TestStatementCache:
    """``parse`` memoises by text: every execution shares one AST."""

    def test_equal_text_shares_one_ast(self):
        for text in STATEMENTS.values():
            assert parse(text) is parse(text)

    def test_execution_does_not_mutate_the_shared_ast(self):
        texts = list(STATEMENTS.values()) + [text for text, _ in LOCAL_DML]
        before = {text: repr(parse(text)) for text in texts}
        run_autocommit()
        run_in_transaction()
        assert {text: repr(parse(text)) for text in texts} == before

    def test_parameters_are_not_part_of_the_cached_statement(self):
        db = _TinyTpcc()
        txn = db.begin()
        text = ("SELECT c_w_id, c_d_id, c_id FROM customer "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")
        for params in ([2, 3, 7], [1, 1, 1], [2, 4, 12]):
            assert db.execute(txn, text, params)[1] == [tuple(params)]
        assert db.execute(txn, text, [9, 9, 9])[1] == []

    def test_a_syntax_error_is_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(SqlSyntaxError):
                parse("SELECT FROM WHERE")
