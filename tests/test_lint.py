"""Tests for repro-lint: every rule fires on a bad fixture, stays quiet
on the good variant, and honours inline suppression; plus engine
behaviour (skip-file, CLI) and the seeded-mutation check that
guards the linter itself against regressions."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import SourceModule, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import module_name_for
from repro.lint.index import EFFECT_CLASS_SEEDS
from tests.kill_matrix import MUTANTS

KILL_ROWS = {row[0]: row for row in MUTANTS}

REPO_ROOT = Path(__file__).resolve().parents[1]
EFFECTS_PY = REPO_ROOT / "src" / "repro" / "effects.py"
TRANSACTION_PY = REPO_ROOT / "src" / "repro" / "core" / "transaction.py"
FABRIC_PY = REPO_ROOT / "src" / "repro" / "runtime" / "fabric.py"
RECOVERY_PY = REPO_ROOT / "src" / "repro" / "core" / "recovery.py"


def findings_for(source, module="repro.core.example"):
    return lint_source(textwrap.dedent(source), module=module)


def codes(source, module="repro.core.example"):
    return [f.rule for f in findings_for(source, module=module)]


# ---------------------------------------------------------------------------
# RL001 -- effect constructed but never yielded
# ---------------------------------------------------------------------------


class TestRL001:
    def test_bare_statement_fires(self):
        assert codes("""
            from repro import effects
            def commit():
                effects.PutIfVersion("data", 1, "v", 3)
                yield effects.ReportCommitted(7)
        """) == ["RL001"]

    def test_tuple_unpack_of_effect_fires(self):
        # The exact shape a deleted `yield` leaves behind.
        assert codes("""
            from repro import effects
            def rollback():
                ok, _ = effects.PutIfVersion("data", 1, "v", 3)
                yield effects.ReportAborted(7)
        """) == ["RL001"]

    def test_yield_from_effect_fires(self):
        assert codes("""
            from repro.effects import Get
            def read():
                value = yield from Get("data", 1)
                return value
        """) == ["RL001"]

    def test_effect_factory_dropped_fires(self):
        assert codes("""
            from repro.effects import multi_get
            def read_many(keys):
                multi_get("data", keys)
                yield None
        """) == ["RL001"]

    def test_yielded_and_batched_effects_are_clean(self):
        assert codes("""
            from repro import effects
            def commit(keys, records):
                keys.append(1)
                results = yield effects.multi_put("data", keys, records)
                ok, _ = yield effects.PutIfVersion("data", 2, "w", 4)
                return results, ok
        """) == []

    def test_single_name_binding_is_clean(self):
        # Building an op to batch later is the idiomatic use.
        assert codes("""
            from repro import effects
            def build():
                op = effects.Get("data", 1)
                return op
        """) == []

    def test_suppressed(self):
        assert codes("""
            from repro import effects
            def probe():
                effects.Get("data", 1)  # repro-lint: ignore[RL001] repr probe
        """) == []

    def test_effect_seeds_are_the_request_closure(self):
        # Runs that do not lint repro/effects.py (`repro-lint tests`,
        # any single file) know the effect classes from the seeds alone:
        # a class missing there is a dropped yield nobody reports.
        closure = {"Request"}
        for node in ast.parse(EFFECTS_PY.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id in closure
                    for base in node.bases):
                closure.add(node.name)  # source order: bases come first
        assert {name for _module, name in EFFECT_CLASS_SEEDS} == closure


# ---------------------------------------------------------------------------
# RL002 -- generator coroutine called without `yield from`
# ---------------------------------------------------------------------------


class TestRL002:
    def test_plain_statement_call_fires(self):
        assert codes("""
            class Txn:
                def read(self, key):
                    yield key
                def commit(self):
                    self.read(1)
                    yield 2
        """) == ["RL002"]

    def test_yield_instead_of_yield_from_fires(self):
        assert codes("""
            class Txn:
                def read(self, key):
                    yield key
                def commit(self):
                    row = yield self.read(1)
                    return row
        """) == ["RL002"]

    def test_return_of_generator_from_generator_fires(self):
        assert codes("""
            class Txn:
                def read(self, key):
                    yield key
                def commit(self):
                    yield 1
                    return self.read(2)
        """) == ["RL002"]

    def test_module_level_generator_fires(self):
        assert codes("""
            def helper():
                yield 1
            def driver():
                helper()
                yield 2
        """) == ["RL002"]

    def test_yield_from_and_argument_passing_are_clean(self):
        assert codes("""
            def helper():
                yield 1
            def spawn(gen):
                return gen
            def driver():
                yield from helper()
                spawn(helper())
        """) == []

    def test_return_generator_from_plain_function_is_clean(self):
        # A non-generator factory returning a coroutine is a legit pattern.
        assert codes("""
            class Txn:
                def read(self, key):
                    yield key
                def reader(self):
                    return self.read(1)
        """) == []

    def test_unresolvable_receiver_is_not_flagged(self):
        # Calls through arbitrary receivers stay silent by design.
        assert codes("""
            class Txn:
                def commit(self, log):
                    log.append(1)
                    yield 2
        """) == []

    def test_inherited_generator_method_resolves(self):
        assert codes("""
            class Base:
                def fetch(self):
                    yield 1
            class Child(Base):
                def run(self):
                    self.fetch()
                    yield 2
        """) == ["RL002"]

    def test_suppressed(self):
        assert codes("""
            def helper():
                yield 1
            def driver():
                helper()  # repro-lint: ignore[RL002] deliberate no-op
                yield 2
        """) == []


# ---------------------------------------------------------------------------
# Wall clock in repro.* outside repro.bench: RF001 (these fixtures checked
# the retired rule of the same class name)
# ---------------------------------------------------------------------------


class TestRL003:
    def test_time_call_in_sim_module_fires(self):
        assert codes("""
            import time
            def now():
                return time.time()
        """, module="repro.sim.fixture") == ["RF001"]

    def test_from_import_fires(self):
        assert codes("""
            from time import perf_counter
        """, module="repro.store.fixture") == ["RF001"]

    def test_bench_is_exempt(self):
        assert codes("""
            import time
            def now():
                return time.perf_counter()
        """, module="repro.bench.fixture") == []

    def test_aliased_module_fires(self):
        assert codes("""
            import time as clock
            def now():
                return clock.monotonic()
        """, module="repro.core.fixture") == ["RF001"]

    def test_simulated_clock_is_clean(self):
        assert codes("""
            def now(sim):
                return sim.now
        """, module="repro.sim.fixture") == []

    def test_suppressed_with_standalone_comment(self):
        assert codes("""
            import time
            def now():
                # repro-lint: ignore[RF001] calibration runs outside the sim
                return time.time()
        """, module="repro.sim.fixture") == []


# ---------------------------------------------------------------------------
# Module-level random / unseeded Random(): RF001 in any module (these
# fixtures checked the retired rule of the same class name)
# ---------------------------------------------------------------------------


class TestRL004:
    def test_module_level_function_fires(self):
        assert codes("""
            import random
            def pick(items):
                return random.choice(items)
        """) == ["RF001"]

    def test_unseeded_random_fires(self):
        assert codes("""
            import random
            def rng():
                return random.Random()
        """) == ["RF001"]

    def test_unseeded_imported_random_fires(self):
        assert codes("""
            from random import Random
            def rng():
                return Random()
        """) == ["RF001"]

    def test_seeded_random_is_clean(self):
        assert codes("""
            import random
            def rng(seed):
                return random.Random(seed)
        """) == []

    def test_attribute_named_random_is_clean(self):
        # `self.random` is an instance attribute, not the module.
        assert codes("""
            class W:
                def pick(self):
                    return self.random.uniform(1, 10)
        """) == []


# ---------------------------------------------------------------------------
# RF001 -- its scope, and the kill matrix's planted wall-clock rows
# ---------------------------------------------------------------------------

PERF_COUNTER = """
    import time
    def elapsed(start):
        return time.perf_counter() - start
"""

UNSEEDED_PICK = """
    import random
    def pick():
        return random.random()
"""


class TestRF001:
    @pytest.mark.parametrize("row_id", [
        "fabric_wall_clock",
        "cm_wall_clock_two_deep",
        "tpcc_wall_clock_via_helper",
    ])
    def test_planted_wall_clock_row(self, row_id):
        # Each row's bug is one clock read in its own module; the clean
        # module is silent.
        _id, file, old, new, _why = KILL_ROWS[row_id]
        real = (REPO_ROOT / file).read_text()
        module = module_name_for(str(REPO_ROOT / file))
        assert lint_source(real, module=module) == []
        found = lint_source(real.replace(old, new, 1), module=module)
        assert [f.rule for f in found] == ["RF001"]
        assert "time.time" in found[0].message

    @pytest.mark.parametrize("module", [
        "repro.bench.x", "benchmarks.ledger.x", "tests.x"])
    def test_clock_outside_scope_is_silent(self, module):
        assert codes(PERF_COUNTER, module=module) == []

    def test_clock_in_workloads_fires(self):
        assert codes(PERF_COUNTER, module="repro.workloads.x") == ["RF001"]

    def test_unreached_clock_in_repro_fires(self):
        # No call path is needed: a helper nothing calls is flagged too.
        assert codes("""
            import time
            def _stamp():
                return time.time()
        """, module="repro.workloads.tpcc.x") == ["RF001"]

    def test_from_time_import_fires(self):
        assert codes("""
            from time import monotonic
        """, module="repro.core.x") == ["RF001"]

    def test_unseeded_rng_outside_repro_fires(self):
        assert codes(UNSEEDED_PICK, module="tests.x") == ["RF001"]

    def test_unseeded_rng_in_helper_module(self):
        # Reported where the RNG is called, not where the helper is used.
        helper = SourceModule("<entropy>", "repro.helpers.entropy",
                              textwrap.dedent(UNSEEDED_PICK))
        found = lint_source(textwrap.dedent("""
            from repro.helpers.entropy import pick
            def choose():
                return pick()
        """), module="repro.core.mini", extra_sources=[helper])
        assert [(f.path, f.rule) for f in found] == [("<entropy>", "RF001")]
        assert "unseeded RNG" in found[0].message

    def test_seeded_rng_is_silent(self):
        assert codes("""
            import random
            def make_rng():
                return random.Random(42), random.Random(seed=7)
        """, module="tests.x") == []

    def test_inline_suppression(self):
        assert codes("""
            import random
            def pick():
                return random.random()  # repro-lint: ignore[RF001]
        """, module="tests.x") == []


# ---------------------------------------------------------------------------
# RL005 -- set iteration
# ---------------------------------------------------------------------------


class TestRL005:
    def test_for_over_set_literal_fires(self):
        assert codes("""
            def f():
                for space in {"a", "b"}:
                    print(space)
        """) == ["RL005"]

    def test_comprehension_over_set_call_fires(self):
        assert codes("""
            def f(keys):
                return [k for k in set(keys)]
        """) == ["RL005"]

    def test_sorted_set_is_clean(self):
        assert codes("""
            def f(keys):
                for k in sorted(set(keys)):
                    print(k)
        """) == []

    def test_membership_test_is_clean(self):
        assert codes("""
            def f(k, seen):
                return k in {"a", "b"} or k in seen
        """) == []


# ---------------------------------------------------------------------------
# RL006 -- Request/Delay/Event subclass without __slots__
# ---------------------------------------------------------------------------


class TestRL006:
    def test_effect_subclass_without_slots_fires(self):
        assert codes("""
            from repro.effects import StoreRequest
            class Touch(StoreRequest):
                def __init__(self, space, key):
                    super().__init__(space, key)
        """) == ["RL006"]

    def test_transitive_subclass_fires(self):
        assert codes("""
            from repro.effects import Request
            class Mid(Request):
                __slots__ = ()
            class Leaf(Mid):
                pass
        """) == ["RL006"]

    def test_kernel_delay_subclass_fires(self):
        assert codes("""
            from repro.sim.kernel import Delay
            class JitteredDelay(Delay):
                pass
        """, module="repro.sim.fixture") == ["RL006"]

    def test_subclass_with_slots_is_clean(self):
        assert codes("""
            from repro.effects import StoreRequest
            class Touch(StoreRequest):
                __slots__ = ("extra",)
        """) == []

    def test_unrelated_class_is_clean(self):
        assert codes("""
            class Plain:
                pass
        """) == []

    def test_cross_module_subclass_resolves(self):
        # A subclass in one module of an effect defined in another.
        base = SourceModule(
            "base.py", "repro.core.basefx",
            textwrap.dedent("""
                from repro.effects import Request
                class CustomFx(Request):
                    __slots__ = ()
            """),
        )
        findings = lint_source(
            textwrap.dedent("""
                from repro.core.basefx import CustomFx
                class Slotless(CustomFx):
                    pass
            """),
            module="repro.core.userfx",
            extra_sources=[base],
        )
        assert [f.rule for f in findings] == ["RL006"]


# ---------------------------------------------------------------------------
# RL008 -- dispatcher bypassed from protocol code
# ---------------------------------------------------------------------------


class TestRL008:
    def test_cluster_execute_fires(self):
        assert codes("""
            def read(cluster, op):
                return cluster.execute(op)
        """) == ["RL008"]

    def test_attribute_chain_receiver_fires(self):
        assert codes("""
            def scan(self, op):
                return self.deployment.cluster.execute_scan(op)
        """) == ["RL008"]

    def test_commit_manager_call_fires(self):
        assert codes("""
            def finish(commit_manager, tid):
                commit_manager.set_committed(tid)
        """) == ["RL008"]

    def test_manager_alias_fires(self):
        assert codes("""
            def finish(manager, tid):
                manager.set_aborted(tid)
        """) == ["RL008"]

    def test_yielded_effect_is_clean(self):
        assert codes("""
            from repro import effects
            def finish(tid):
                yield effects.ReportCommitted(tid)
        """) == []

    def test_other_receivers_and_methods_are_clean(self):
        assert codes("""
            def f(pool, manager, cluster):
                pool.execute("sql")          # not a cluster
                manager.publish_state()      # not a CM dispatch method
                return cluster.live_nodes()  # not execute/execute_scan
        """) == []

    def test_driver_packages_are_exempt(self):
        source = """
            def drive(cluster, op):
                return cluster.execute(op)
        """
        assert codes(source, module="repro.bench.simcluster") == []
        assert codes(source, module="repro.runtime.deployment") == []
        assert codes(source, module="repro.dispatch.direct") == []
        assert codes(source, module="repro.api.runner") == []

    def test_inline_suppression(self):
        assert codes("""
            def recover(manager, tid):
                manager.set_aborted(tid)  # repro-lint: ignore[RL008]
        """) == []


# ---------------------------------------------------------------------------
# RL012 -- isolation state touched outside the module that owns it
# ---------------------------------------------------------------------------


class TestRL012:
    def test_read_keys_load_fires(self):
        source = """
            def snoop(txn):
                return list(txn._read_keys)
        """
        assert codes(source, module="repro.core.processing_node") == ["RL012"]
        # ... and its owner reads it freely.
        assert codes(source, module="repro.core.transaction") == []

    def test_read_keys_store_fires(self):
        assert codes("""
            def hijack(txn):
                txn._read_keys = {}
        """, module="repro.sql.table") == ["RL012"]

    def test_commit_window_access_fires(self):
        assert codes("""
            def peek(validator):
                return len(validator._commit_window)
        """, module="repro.api.database") == ["RL012"]

    def test_validation_horizon_access_fires(self):
        assert codes("""
            def rewind(validator):
                validator._validation_horizon = 0
        """, module="repro.runtime.deployment") == ["RL012"]

    def test_isolation_package_is_exempt(self):
        # ... for the validator state it owns, not for the read set.
        assert codes("""
            def prune(validator):
                validator._commit_window.clear()
                validator._validation_horizon = 0
        """, module="repro.core.isolation.validation") == []
        assert codes("""
            def attach(txn):
                txn._read_keys = {}
        """, module="repro.core.isolation.validation") == ["RL012"]

    def test_outside_repro_is_exempt(self):
        # Tests and tools address the state directly by design.
        assert codes("""
            def assert_window(validator):
                assert not validator._commit_window
        """, module="test_isolation") == []

    def test_protocol_surface_is_clean(self):
        assert codes("""
            def scan_hook(txn, keys):
                if txn.tracks_reads:
                    txn.note_scanned(keys)
        """, module="repro.sql.table") == []

    def test_suppression(self):
        assert codes("""
            def probe(txn):
                return txn._read_keys  # repro-lint: ignore[RL012] fixture
        """, module="repro.core.fixture") == []


class TestEngine:
    def test_skip_file(self):
        assert codes("""
            # repro-lint: skip-file  (generated)
            def f(keys):
                return [k for k in set(keys)]
        """) == []

    def test_syntax_error_reported_as_rl000(self):
        assert codes("def f(:\n") == ["RL000"]

    def test_multi_rule_suppression(self):
        assert codes("""
            import random
            import time
            def f():
                for x in {random.random()}:  # repro-lint: ignore[RL005, RF001]
                    return time.time()  # repro-lint: ignore[RF001] fixture
        """, module="repro.core.fixture") == []

    def test_suppression_requires_matching_code(self):
        assert codes("""
            def f(keys):
                return [k for k in set(keys)]  # repro-lint: ignore[RL001]
        """) == ["RL005"]

    def test_module_name_for(self):
        assert module_name_for("src/repro/core/transaction.py") == \
            "repro.core.transaction"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _write_fixture(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        bad = pkg / "bad.py"
        bad.write_text("def f(keys):\n    return [k for k in set(keys)]\n")
        return bad

    def test_findings_exit_1_and_human_output(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self._write_fixture(tmp_path)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out and "bad.py" in out

    def test_clean_exit_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.py"
        good.write_text("def f(x):\n    return x\n")
        assert lint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_overlapping_paths_lint_each_file_once(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self._write_fixture(tmp_path)
        assert lint_main(["repro", str(bad), "repro/core"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in out
                if line.startswith("repro/")] == ["RL005"]
        assert out[-2] == "repro-lint: 1 finding(s) in 1 file(s)"

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--changed"], ["--cache", "c.json"],
        ["--baseline", "b.json"], ["--no-baseline"], ["--write-baseline"],
        ["--flow"], ["--atomic"], ["--json"], ["--dump-callgraph"],
    ])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(flag + ["src"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "RL001"]) == 0
        out = capsys.readouterr().out
        assert "RL001" in out and "yield" in out

    def test_explain_every_rule_has_docs(self, capsys):
        from repro.lint import RULES_BY_CODE
        for code in RULES_BY_CODE:
            assert lint_main(["--explain", code]) == 0
            out = capsys.readouterr().out
            assert code in out
            assert len(out.splitlines()) > 3  # title + real prose

    def test_explain_unknown_rule_exit_2(self, capsys):
        assert lint_main(["--explain", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert lint_main(["does-not-exist"]) == 2

    def test_explain_rf001_names_its_scope(self, capsys):
        assert lint_main(["--explain", "RF001"]) == 0
        out = capsys.readouterr().out
        assert "repro.bench" in out and "random.Random(seed)" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "RL001", "RL002", "RL005", "RL006", "RL008", "RL012", "RF001"]

    def test_rule_catalog_documents_exactly_the_registered_rules(self, capsys):
        # One `### <code>` heading in docs/static-analysis.md per rule
        # `--list-rules` prints, and none for a rule that is gone.
        assert lint_main(["--list-rules"]) == 0
        registered = [line.split()[0]
                      for line in capsys.readouterr().out.splitlines()]
        catalog = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        documented = re.findall(r"^### (R[LFA]\d{3})\b", catalog, re.M)
        assert documented == registered != []


# ---------------------------------------------------------------------------
# The shipped tree and the seeded-mutation guard
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_repro_lint_src_exits_0(self, capsys, monkeypatch):
        # The one whole-tree run (what CI runs): every rule, every tree,
        # one inline suppression (core/recovery.py, RL008).
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "tests", "examples", "benchmarks"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_deleting_yield_before_putifversion_trips_rl001(self):
        # The one LL/SC version-removal loop lives in recovery.py.
        real = RECOVERY_PY.read_text()
        mutated = real.replace(
            "ok, _ = yield effects.PutIfVersion(",
            "ok, _ = effects.PutIfVersion(",
        )
        assert mutated != real, "mutation site vanished; update the test"
        found = lint_source(mutated, module="repro.core.recovery")
        assert "RL001" in [f.rule for f in found]

    def test_deleting_yield_before_report_committed_trips_rl001(self):
        real = TRANSACTION_PY.read_text()
        mutated = real.replace(
            "yield effects.ReportCommitted(self.tid)",
            "effects.ReportCommitted(self.tid)",
        )
        assert mutated != real
        found = lint_source(mutated, module="repro.core.transaction")
        assert [f.rule for f in found].count("RL001") >= 1

    def test_deleting_yield_from_trips_rl002(self):
        real = TRANSACTION_PY.read_text()
        mutated = real.replace(
            "yield from self._fetch([key])", "self._fetch([key])"
        )
        assert mutated != real
        found = lint_source(mutated, module="repro.core.transaction")
        assert "RL002" in [f.rule for f in found]

    def test_wall_clock_in_the_fabric_trips_rl003(self):
        # The fabric *decides* simulated time; a wall-clock read there
        # breaks determinism at the source.  (Named for the retired
        # module-local rule; RF001 reports it now.)
        real = FABRIC_PY.read_text()
        mutated = real.replace(
            "        now = self.sim.now\n        t_send = now\n",
            "        import time\n        now = time.time()\n"
            "        t_send = now\n",
            1,
        )
        assert mutated != real, "mutation site vanished; update the test"
        found = lint_source(mutated, module="repro.runtime.fabric")
        assert [f.rule for f in found] == ["RF001"]
        assert lint_source(real, module="repro.runtime.fabric") == []

    def test_unmutated_transaction_is_clean(self):
        assert lint_source(
            TRANSACTION_PY.read_text(), module="repro.core.transaction"
        ) == []
