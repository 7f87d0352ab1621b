"""Tests for the modern public API: connect(), context managers, results."""

import ast
import pathlib
import re

import pytest

import repro
import repro.dispatch
import repro.effects
from repro.api import Database, DatabaseConfig
from repro.errors import (DuplicateKey, InvalidState, MultipleResultRows,
                          NoResultRows, TransactionAborted)


class TestConnect:
    def test_connect_returns_open_database(self):
        db = repro.connect()
        assert isinstance(db, Database)
        assert not db.closed
        db.close()

    def test_connect_accepts_config_object(self):
        config = DatabaseConfig(storage_nodes=2, commit_managers=2)
        with repro.connect(config) as db:
            assert db.config is config
            assert len(db.commit_managers) == 2

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(InvalidState):
            repro.connect(DatabaseConfig(), storage_nodes=4)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            repro.connect(storage_nods=3)

    @pytest.mark.parametrize("bad", [
        dict(commit_managers=0),
        dict(storage_nodes=0),
        dict(replication_factor=0),
        dict(replication_factor=4, storage_nodes=2),
        dict(partitions_per_node=0),
        dict(tid_range_size=0),
        dict(buffering="lru"),
        dict(buffering="sbvsbig"),
    ])
    def test_validation_single_point(self, bad):
        with pytest.raises(InvalidState):
            repro.connect(**bad)
        with pytest.raises(InvalidState):
            DatabaseConfig(**bad)

    def test_valid_buffering_spellings(self):
        for name in ("tb", "sb", "sbvs", "sbvs16"):
            DatabaseConfig(buffering=name)

    def test_config_is_frozen(self):
        config = DatabaseConfig()
        with pytest.raises(Exception):
            config.storage_nodes = 9

    def test_with_copies_and_revalidates(self):
        config = DatabaseConfig(storage_nodes=4)
        copy = config.with_(buffering="sbvs16")
        assert copy.buffering == "sbvs16"
        assert copy.storage_nodes == 4
        with pytest.raises(InvalidState):
            config.with_(replication_factor=9)

    def test_legacy_keyword_construction_still_works(self):
        db = Database(storage_nodes=2, replication_factor=2)
        assert len(db.cluster.nodes) == 2
        assert db.config.buffering == "tb"
        with pytest.raises(InvalidState):
            Database(commit_managers=0)


class TestDatabaseLifecycle:
    def test_context_manager_closes(self):
        with repro.connect() as db:
            db.session()
        assert db.closed
        with pytest.raises(InvalidState):
            db.session()
        with pytest.raises(InvalidState):
            db.add_processing_node()

    def test_close_is_idempotent(self):
        db = repro.connect()
        db.close()
        db.close()
        assert db.closed


class TestSessionLifecycle:
    def test_session_context_manager_rolls_back_open_txn(self, db):
        with db.session() as session:
            session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            session.execute("BEGIN")
            session.execute("INSERT INTO t VALUES (1)")
            # leaving the with-block without COMMIT
        assert session.closed
        check = db.session()
        assert check.query("SELECT * FROM t") == []
        active = sum(len(m.active_transactions()) for m in db.commit_managers)
        assert active == 0

    def test_closed_session_refuses_sql(self, db):
        session = db.session()
        session.close()
        with pytest.raises(InvalidState):
            session.execute("SELECT 1 FROM t")
        with pytest.raises(InvalidState):
            session.begin()

    def test_close_is_idempotent(self, db):
        session = db.session()
        session.begin()
        session.close()
        session.close()
        assert not session.in_transaction


class TestTransactionScope:
    def test_commit_on_clean_exit(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        with session.transaction():
            session.execute("INSERT INTO t VALUES (1, 10)")
            session.execute("INSERT INTO t VALUES (2, 20)")
        assert not session.in_transaction
        assert db.session().query("SELECT COUNT(*) AS n FROM t")[0]["n"] == 2

    def test_rollback_on_exception_propagates(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises(RuntimeError, match="boom"):
            with session.transaction():
                session.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("boom")
        assert not session.in_transaction
        assert session.query("SELECT * FROM t") == []

    def test_manual_commit_inside_scope_is_honored(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with session.transaction():
            session.execute("INSERT INTO t VALUES (1)")
            session.execute("COMMIT")
        assert session.query("SELECT * FROM t") != []

    def test_manual_rollback_inside_scope_is_honored(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with session.transaction():
            session.execute("INSERT INTO t VALUES (1)")
            session.rollback()
        assert session.query("SELECT * FROM t") == []

    def test_conflict_surfaces_as_transaction_aborted(self, db):
        a, b = db.session(), db.session()
        a.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        a.execute("INSERT INTO t VALUES (1, 0)")
        with pytest.raises(TransactionAborted):
            with a.transaction():
                a.execute("UPDATE t SET v = 1 WHERE id = 1")
                with b.transaction():
                    b.execute("UPDATE t SET v = 2 WHERE id = 1")
        assert not a.in_transaction

    def test_nested_scope_rejected(self, db):
        session = db.session()
        with session.transaction():
            with pytest.raises(InvalidState):
                with session.transaction():
                    pass

    def test_transaction_object_is_yielded(self, db):
        session = db.session()
        with session.transaction() as txn:
            assert txn is session._txn


class TestResultSurface:
    @pytest.fixture
    def session(self, db):
        session = db.session()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        session.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        return session

    def test_execute_always_returns_result_set(self, session):
        result = session.execute("SELECT * FROM t")
        assert result.columns == ["id", "v"]
        assert result.rowcount == 2
        assert result.dicts() == [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}]

    def test_one_returns_single_row(self, session):
        assert session.execute(
            "SELECT v FROM t WHERE id = 1").one() == ("a",)

    def test_one_raises_on_empty(self, session):
        with pytest.raises(NoResultRows):
            session.execute("SELECT v FROM t WHERE id = 9").one()

    def test_one_raises_on_multiple(self, session):
        with pytest.raises(MultipleResultRows):
            session.execute("SELECT v FROM t").one()

    def test_scalar_is_lenient(self, session):
        assert session.execute("SELECT v FROM t WHERE id = 2").scalar() == "b"
        assert session.execute("SELECT v FROM t WHERE id = 9").scalar() is None

    def test_query_is_dict_convenience(self, session):
        assert session.query("SELECT id FROM t WHERE id = 1") == [{"id": 1}]


class TestBackfillAbort:
    def test_failed_backfill_aborts_its_transaction(self, db):
        session = db.session()
        session.execute("CREATE TABLE d (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO d VALUES (1, 5), (2, 5)")
        with pytest.raises(DuplicateKey):
            session.execute("CREATE UNIQUE INDEX d_v ON d (v)")
        # The backfill transaction must not linger holding the lav down.
        active = sum(len(m.active_transactions()) for m in db.commit_managers)
        assert active == 0
        # The session stays usable.
        with session.transaction():
            session.execute("INSERT INTO d VALUES (3, 6)")
        assert session.query(
            "SELECT COUNT(*) AS n FROM d")[0]["n"] == 3


def _imports(tree, module_level_only=False):
    """Dotted names a module imports (``from a import b`` yields ``a`` and
    ``a.b``); ``module_level_only`` skips function bodies."""
    stack, found = [tree], set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif module_level_only and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return found


def _within(names, package):
    return sorted(name for name in names
                  if name == package or name.startswith(package + "."))


def _outside(names, allowed):
    """The ``repro.*`` names among ``names`` that are in no allowed package."""
    return [name for name in _within(names, "repro")
            if name != "repro"
            and not any(_within([name], lower) for lower in allowed)]


class TestImportDirection:
    """Library packages sit under the benchmark package, never on it, the
    store is the bottom layer and the MVCC core sits right on it."""

    STORE_MAY_IMPORT = ("repro.effects", "repro.errors", "repro.store")
    CORE_MAY_IMPORT = ("repro.effects", "repro.errors", "repro.store.cell",
                       "repro.core")

    def test_dependency_arrows_point_away_from_the_benchmark(self):
        package = pathlib.Path(repro.__file__).parent
        offenders = {}
        for path in sorted(package.rglob("*.py")):
            rel = path.relative_to(package.parent).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if not rel.startswith("repro/bench/"):
                bad = _within(_imports(tree), "repro.bench")
                if bad:
                    offenders[rel] = bad
            if rel.startswith("repro/runtime/"):
                top = _imports(tree, module_level_only=True)
                bad = [name for upper in ("repro.bench", "repro.api",
                                          "repro.workloads")
                       for name in _within(top, upper)]
                if bad:
                    offenders[rel] = bad
            if rel.startswith("repro/store/"):
                bad = _outside(_imports(tree), self.STORE_MAY_IMPORT)
                if bad:
                    offenders[rel] = bad
            if rel.startswith("repro/core/"):
                names = _imports(tree)
                # No deferred import either: the core has no import cycle
                # to break (``if TYPE_CHECKING:`` blocks are module level).
                deferred = names - _imports(tree, module_level_only=True)
                bad = (_outside(names, self.CORE_MAY_IMPORT)
                       + _within(deferred, "repro.core"))
                if bad:
                    offenders[rel] = bad
        assert offenders == {}


def test_dispatch_re_exports_nothing_from_effects():
    """A request kind has one import path: :mod:`repro.effects`, which
    declares it; :mod:`repro.dispatch` exports none of its names."""
    effects_names = {name for name in vars(repro.effects)
                     if not name.startswith("_")}
    assert sorted(effects_names.intersection(repro.dispatch.__all__)) == []


#: Import paths the frozen ledger (``benchmarks/ledger``) still reads;
#: each module only re-exports names that live elsewhere.
LEDGER_STUBS = {
    "repro.bench.simcluster": "repro/bench/simcluster.py",
    "repro.bench.config": "repro/bench/config.py",
    "repro.bench.metrics": "repro/bench/metrics.py",
    "repro.bench.ycsb_sim": "repro/bench/ycsb_sim.py",
    "repro.api.runner": "repro/api/runner.py",
}
ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestLedgerStubs:
    def test_only_the_ledger_imports_a_stub(self):
        offenders = {}
        for top in ("src", "tests", "examples"):
            for path in sorted((ROOT / top).rglob("*.py")):
                names = _imports(ast.parse(path.read_text(encoding="utf-8")))
                bad = sorted(names & set(LEDGER_STUBS))
                if bad:
                    offenders[path.relative_to(ROOT).as_posix()] = bad
        assert offenders == {}

    @pytest.mark.parametrize("module", sorted(LEDGER_STUBS))
    def test_stub_exports_exactly_the_documented_names(self, module):
        """``__all__`` equals the names docs/simulation.md "What the
        frozen ledger pins" spells out for this path, and each is bound."""
        text = (ROOT / "docs" / "simulation.md").read_text(encoding="utf-8")
        section = text[text.index("### What the frozen ledger pins"):]
        section = section[:section.index("\n#", 1)]
        documented = set(re.findall(rf"`{re.escape(module)}\.(\w+)`", section))
        tree = ast.parse(
            (ROOT / "src" / LEDGER_STUBS[module]).read_text(encoding="utf-8"))
        exported, bound = None, set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = {target.id for target in node.targets}
                if targets == {"__all__"}:
                    exported = set(ast.literal_eval(node.value))
                bound |= targets
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.ClassDef):
                bound.add(node.name)
        assert documented and exported == documented
        assert exported <= bound

