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
            def commit(puts):
                puts.append(effects.PutIfVersion("data", 1, "v", 3))
                results = yield effects.Batch(puts)
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
# Wall clock in simulated-time code: RF001's chain of length zero (these
# fixtures checked the retired module-local rule of the same class name)
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
# Module-level random / unseeded Random(): RF001 in any module, reachable
# or not (these fixtures checked the retired rule of the same class name)
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
# RL007 -- mutable default arguments
# ---------------------------------------------------------------------------


class TestRL007:
    def test_list_default_fires(self):
        assert codes("""
            def f(x, acc=[]):
                acc.append(x)
        """) == ["RL007"]

    def test_dict_call_default_fires(self):
        assert codes("""
            def f(x, table=dict()):
                table[x] = 1
        """) == ["RL007"]

    def test_kwonly_default_fires(self):
        assert codes("""
            def f(x, *, acc={}):
                acc[x] = 1
        """) == ["RL007"]

    def test_none_default_is_clean(self):
        assert codes("""
            def f(x, acc=None):
                acc = acc or []
                acc.append(x)
        """) == []


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
# Sanitizer mutates protocol state: RF004's chain of length zero (these
# fixtures checked the retired module-local rule of the same class name)
# ---------------------------------------------------------------------------


class TestRL009:
    def test_attribute_assignment_on_record_fires(self):
        assert codes("""
            def observe(self, record):
                record.versions = ()
        """, module="repro.san.si") == ["RF004"]

    def test_subscript_store_on_protocol_attr_fires(self):
        assert codes("""
            def observe(self, txn, key):
                txn.index_ops[0] = None
        """, module="repro.san.gcsan") == ["RF004"]

    def test_mutating_method_call_fires(self):
        assert codes("""
            def observe(self, manager, tid):
                manager.set_committed(tid)
        """, module="repro.san.si") == ["RF004"]

    def test_driving_a_transaction_fires(self):
        assert codes("""
            def observe(self, txn):
                txn.commit()
        """, module="repro.san.chain") == ["RF004"]

    def test_read_only_accessors_are_clean(self):
        assert codes("""
            def observe(self, record, snapshot, manager):
                tids = record.version_numbers()
                latest = record.latest_visible(snapshot)
                base, bits = snapshot.as_pair()
                active = manager.active_transactions()
                return tids, latest, base, bits, active
        """, module="repro.san.si") == []

    def test_own_state_and_shadow_names_are_clean(self):
        assert codes("""
            def observe(self, view, sc, key):
                self.records_checked += 1
                self.shadow.cells[key] = sc
                view.reads[key] = 3
                sc.cell_version = 4
        """, module="repro.san.si") == []

    def test_driver_modules_are_exempt(self):
        source = """
            def drive(txn, manager, tid):
                txn.commit()
                manager.set_committed(tid)
        """
        assert codes(source, module="repro.san.scenarios") == []
        assert codes(source, module="repro.san.explorer") == []
        assert codes(source, module="repro.san.__main__") == []

    def test_outside_san_is_exempt(self):
        assert codes("""
            def apply(record):
                record.versions = ()
        """, module="repro.core.transaction") == []

    def test_inline_suppression(self):
        assert codes("""
            def observe(self, record):
                record.warm_cache()  # repro-lint: ignore[RF004] read-only
        """, module="repro.san.si") == []


# ---------------------------------------------------------------------------
# Sanitizer shadow code must not touch observability: RF004's chain of
# length zero (these fixtures checked the retired rule of the same name)
# ---------------------------------------------------------------------------


class TestRL010:
    def test_import_repro_obs_fires(self):
        assert codes("""
            import repro.obs
        """, module="repro.san.si") == ["RF004"]

    def test_import_submodule_fires(self):
        assert codes("""
            import repro.obs.registry
        """, module="repro.san.gcsan") == ["RF004"]

    def test_from_import_fires(self):
        assert codes("""
            from repro.obs import MetricsRegistry
        """, module="repro.san.chain") == ["RF004"]

    def test_from_submodule_import_fires(self):
        assert codes("""
            from repro.obs.tracing import Tracer
        """, module="repro.san.si") == ["RF004"]

    def test_recording_into_registry_fires(self):
        assert codes("""
            def observe(self, registry):
                registry.counter("repro_san_checks").inc()
        """, module="repro.san.si") == ["RF004"]

    def test_span_and_tracer_calls_fire(self):
        assert codes("""
            def observe(self, tracer, span):
                child = tracer.start_span("check")
                span.finish()
        """, module="repro.san.gcsan") == ["RF004", "RF004"]

    def test_obs_receiver_fires(self):
        assert codes("""
            def observe(self, pn):
                pn.obs.snapshot()
        """, module="repro.san.si") == ["RF004"]

    def test_driver_modules_are_exempt(self):
        source = """
            from repro.obs import Observability
            def drive(obs):
                return obs.snapshot()
        """
        assert codes(source, module="repro.san.scenarios") == []
        assert codes(source, module="repro.san.explorer") == []
        assert codes(source, module="repro.san.__main__") == []

    def test_outside_san_is_exempt(self):
        assert codes("""
            from repro.obs import MetricsRegistry
            def snapshot(obs):
                return obs.snapshot()
        """, module="repro.bench.simcluster") == []

    def test_unrelated_imports_are_clean(self):
        assert codes("""
            from repro import effects
            import repro.errors
        """, module="repro.san.si") == []


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


# ---------------------------------------------------------------------------
# RL013 -- epoch/ownership state mutated outside repro.store.partition
# ---------------------------------------------------------------------------


class TestRL013:
    def test_epoch_store_fires(self):
        assert codes("""
            def rewind(topology):
                topology.epoch = 1
        """, module="repro.store.cluster") == ["RL013"]

    def test_epoch_augassign_fires(self):
        assert codes("""
            def bump(topology):
                topology.epoch += 1
        """, module="repro.runtime.deployment") == ["RL013"]

    def test_handoffs_mutating_call_fires(self):
        assert codes("""
            def forge(topology, handoff):
                topology._handoffs.pop(handoff.partition_id)
        """, module="repro.store.management") == ["RL013"]

    def test_epoch_log_append_fires(self):
        assert codes("""
            def fake(topology):
                topology.epoch_log.append((99, "forged"))
        """, module="repro.api.admin") == ["RL013"]

    def test_epoch_read_is_clean(self):
        # Reads are the supported surface: obs gauges and benches report
        # the epoch without owning it.
        assert codes("""
            def report(topology):
                return (topology.epoch, list(topology.epoch_log))
        """, module="repro.obs.collect") == []

    def test_owner_module_is_exempt(self):
        bump = """
            def _bump(self, reason):
                self.epoch += 1
                self.epoch_log.append((self.epoch, reason))
        """
        assert codes(bump, module="repro.store.partition") == []
        assert codes(bump, module="repro.elastic.topology") == \
            ["RL013", "RL013"]

    def test_outside_repro_is_exempt(self):
        assert codes("""
            def reset(topology):
                topology.epoch = 1
        """, module="test_elastic") == []

    def test_suppression(self):
        assert codes("""
            def probe(topology):
                topology.epoch = 7  # repro-lint: ignore[RL013] fixture
        """, module="repro.core.fixture") == []


class TestEngine:
    def test_skip_file(self):
        assert codes("""
            # repro-lint: skip-file  (generated)
            def f(x, acc=[]):
                acc.append(x)
        """) == []

    def test_syntax_error_reported_as_rl000(self):
        assert codes("def f(:\n") == ["RL000"]

    def test_multi_rule_suppression(self):
        assert codes("""
            import time
            def f(acc=[]):  # repro-lint: ignore[RL007, RF001]
                return time.time()  # repro-lint: ignore[RF001] fixture
        """, module="repro.core.fixture") == []

    def test_suppression_requires_matching_code(self):
        assert codes("""
            def f(x, acc=[]):  # repro-lint: ignore[RL001] wrong code
                acc.append(x)
        """) == ["RL007"]

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
        bad.write_text("def f(x, acc=[]):\n    acc.append(x)\n")
        return bad

    def test_findings_exit_1_and_human_output(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = self._write_fixture(tmp_path)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL007" in out and "bad.py" in out

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
                if line.startswith("repro/")] == ["RL007"]
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

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL007"):
            assert code in out
        assert len(out.splitlines()) == 12

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
            "yield from self._fetch(to_fetch)", "self._fetch(to_fetch)"
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
