"""Tests for repro-flow, the call-graph layer under repro-lint's RF
rules: the call graph links what it should, and every RF rule catches
its planted defect -- once -- and stays quiet on the clean variant."""

import os
import textwrap
from pathlib import Path

import pytest

from repro.lint import SourceModule, lint_sources
from repro.lint.cli import main as lint_main
from repro.lint.engine import build_index, load_sources
from repro.lint.flow.rules import FLOW_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")


def _modules(*pairs):
    return [
        SourceModule(f"<{module}>", module, textwrap.dedent(text))
        for module, text in pairs
    ]


def flow_findings(*pairs):
    """RF findings of a fixture (the RL family is covered by
    test_lint.py)."""
    return [f for f in lint_sources(_modules(*pairs)).findings
            if f.rule.startswith("RF")]


def flow_codes(*pairs):
    return sorted({f.rule for f in flow_findings(*pairs)})


def analysis_of(sources):
    return build_index(sources).flow


@pytest.fixture(scope="module")
def src_sources():
    return load_sources([SRC], relative_to=str(REPO_ROOT))


@pytest.fixture(scope="module")
def src_analysis(src_sources):
    return analysis_of(src_sources)


def mutate(src_sources, edits, rules=FLOW_RULES):
    """Re-lint the real tree with planted text edits (all rules under
    ``rules=None``)."""
    sources = list(src_sources)
    for path_suffix, old, new in edits:
        hit = False
        for i, source in enumerate(sources):
            if source.path.replace(os.sep, "/").endswith(path_suffix):
                assert old in source.text, f"pattern missing in {source.path}"
                sources[i] = SourceModule(
                    source.path, source.module, source.text.replace(old, new, 1))
                hit = True
        assert hit, path_suffix
    return lint_sources(sources, rules=rules).findings


# ---------------------------------------------------------------------------
# Call-graph resolution regressions (real tree)
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_dispatch_direct_chain(self, src_analysis):
        g = src_analysis.graph
        execute = ("repro.dispatch.direct", "Dispatcher.execute")
        handle = ("repro.dispatch.direct", "Dispatcher._handle")
        tail = ("repro.dispatch.direct", "Dispatcher._tail")
        assert handle in g.edges[execute]
        assert handle in g.edges[tail]
        assert ("repro.effects", "kind_of") in g.edges[handle]

    def test_yield_from_delegation_edges(self, src_analysis):
        g = src_analysis.graph
        perform = ("repro.runtime.fabric", "SimFabric.perform")
        batch = ("repro.runtime.fabric", "SimFabric._perform_batch")
        assert batch in g.edges[perform]
        script = ("repro.runtime.deployment",
                  "SimulatedDeployment._transaction")
        commit = ("repro.core.transaction", "Transaction.commit")
        assert commit in g.edges[script]

    def test_dispatch_table_fans_out_to_transactions(self, src_analysis):
        g = src_analysis.graph
        source = ("repro.bench.simcluster", "SimulatedTell._transactions")
        targets = g.edges[source]
        for name in ("new_order", "payment", "order_status",
                     "delivery", "stock_level"):
            assert ("repro.workloads.tpcc.transactions", name) in targets

    def test_annotated_list_element_resolves_prepare_cm(self, src_analysis):
        # self.commit_managers[i].serve resolves through the
        # List[CommitManager] annotation on SimFabric.__init__; serve is
        # the one switch onto the manager's operations.
        g = src_analysis.graph
        prepare = ("repro.runtime.fabric", "SimFabric.prepare_cm")
        serve = ("repro.core.commit_manager", "CommitManager.serve")
        assert serve in g.edges[prepare]
        assert ("repro.core.commit_manager", "CommitManager.start") \
            in g.edges[serve]

    def test_cluster_apply_reaches_every_node_operation(self, src_analysis):
        # `op.apply(node, pid)` on a StoreRequest fans out to each effect
        # class's override, which calls its StorageNode operation: the
        # analyzer sees the store through the path requests take.
        reached = src_analysis.graph.reachable_from(
            {("repro.store.cluster", "StorageCluster.execute")})
        for op in ("get", "put", "put_if_version", "delete",
                   "delete_if_version", "increment"):
            assert ("repro.store.node", f"StorageNode.do_{op}") in reached

    def test_spawned_terminals_reach_commit_manager(self, src_analysis):
        # _spawn_pn spawns the runtime's `_terminal`, whose
        # `self._transactions(...)` reaches each workload's override.
        g = src_analysis.graph
        terminal = ("repro.runtime.deployment",
                    "SimulatedDeployment._terminal")
        assert terminal in g.spawned
        assert ("repro.bench.simcluster", "SimulatedTell._transactions") \
            in g.edges[terminal]
        assert ("repro.bench.ycsb_sim", "SimulatedYcsb._transactions") \
            in g.edges[terminal]
        assert ("repro.core.commit_manager", "CommitManager.start") \
            in src_analysis.sim_parents

    def test_tpcc_transactions_are_sim_reachable(self, src_analysis):
        node = ("repro.workloads.tpcc.transactions", "new_order")
        assert node in src_analysis.sim_parents

    def test_every_effect_leaf_is_routable(self, src_analysis):
        leaves = src_analysis.effect_leaves()
        assert len(leaves) >= 10
        assert all(src_analysis.is_routable(s) for s in leaves)


# ---------------------------------------------------------------------------
# RF001 -- wall clock / RNG reachable from sim entry points
# ---------------------------------------------------------------------------


class TestRF001:
    def test_planted_two_deep_in_commit_manager(self, src_sources):
        findings = mutate(src_sources, [(
            "core/commit_manager.py",
            "class CommitManager",
            "import time\n\n"
            "def _clock_probe():\n    return time.time()\n\n"
            "def _audit_hook():\n    return _clock_probe()\n\n"
            "class CommitManager",
        )])
        rf001 = [f for f in findings if f.rule == "RF001"]
        assert rf001, findings
        assert "_clock_probe" in rf001[0].message

    def test_cross_package_chain_into_workload(self, src_sources):
        # Wall clock OUTSIDE the simulated-time packages but reachable
        # from the spawned terminal through the dispatch table: only the
        # call graph can see this.
        findings = mutate(src_sources, [
            ("workloads/tpcc/transactions.py",
             "def new_order(",
             "import time\n\ndef _stamp():\n    return time.time()\n\n"
             "def _audit():\n    return _stamp()\n\ndef new_order("),
            ("workloads/tpcc/transactions.py",
             'warehouse_table = ctx.table("warehouse")',
             '_audit()\n    warehouse_table = ctx.table("warehouse")'),
        ])
        assert [f.rule for f in findings] == ["RF001"]
        assert "SimulatedDeployment._terminal" in findings[0].message
        assert "new_order" in findings[0].message

    def test_unreached_helper_is_silent(self, src_sources):
        findings = mutate(src_sources, [(
            "workloads/tpcc/transactions.py",
            "def new_order(",
            "import time\n\ndef _stamp():\n    return time.time()\n\n"
            "def new_order(",
        )])
        assert findings == []

    def test_unseeded_rng_in_fixture(self):
        findings = flow_findings(
            ("repro.core.mini", """
                from repro.helpers.entropy import pick
                def choose():
                    return pick()
            """),
            ("repro.helpers.entropy", """
                import random
                def pick():
                    return random.random()
            """),
        )
        assert [f.rule for f in findings] == ["RF001"]
        assert "unseeded RNG" in findings[0].message

    def test_planted_wall_clock_in_fabric_is_one_finding(self, src_sources):
        # Every rule runs: the fabric is a simulated-time package, so the
        # clock is reported once, as RF001, with no module-local twin.
        findings = mutate(src_sources, [(
            "runtime/fabric.py",
            "        now = self.sim.now\n        t_send = now\n",
            "        import time\n        now = time.time()\n"
            "        t_send = now\n",
        )], rules=None)
        assert [f.rule for f in findings] == ["RF001"]
        assert "SimFabric.prepare_single" in findings[0].message

    def test_unseeded_rng_unreached_is_reported(self):
        # Unseeded RNG is nondeterminism wherever it runs: reported in a
        # module nothing in simulated time calls.
        findings = flow_findings(("tools.entropy", """
            import random
            def pick():
                return random.random()
        """))
        assert [f.rule for f in findings] == ["RF001"]
        assert "reachable" not in findings[0].message

    def test_seeded_rng_is_silent(self):
        assert flow_codes(
            ("repro.core.mini", """
                from repro.helpers.entropy import make_rng
                def choose():
                    return make_rng()
            """),
            ("repro.helpers.entropy", """
                import random
                def make_rng():
                    return random.Random(42)
            """),
        ) == []


# ---------------------------------------------------------------------------
# RF002 / RF003 -- dispatcher exhaustiveness
# ---------------------------------------------------------------------------

# A miniature effect vocabulary: the abstract bases declare no `kind`,
# the concrete class does -- the same shape as repro/effects.py.
MINI_EFFECTS = ("repro.effects", """
    KIND_STORE = 0
    class Request:
        __slots__ = ()
    class StoreRequest(Request):
        __slots__ = ()
    class Get(StoreRequest):
        __slots__ = ()
        kind = KIND_STORE
""")


class TestRF002RF003:
    def test_unregistered_leaf_and_yield_fire(self):
        findings = flow_findings(
            MINI_EFFECTS,
            ("repro.workloads.mini", """
                from repro import effects
                class Touch(effects.StoreRequest):
                    pass
                def script():
                    yield Touch()
            """),
        )
        assert sorted(f.rule for f in findings) == ["RF002", "RF003"]
        by_rule = {f.rule: f for f in findings}
        assert "Touch" in by_rule["RF003"].message
        assert "Touch" in by_rule["RF002"].message

    def test_ladder_subclass_is_silent(self):
        # A subclass inherits the kind its parent declares.
        assert flow_codes(
            MINI_EFFECTS,
            ("repro.workloads.mini", """
                from repro import effects
                class TouchGet(effects.Get):
                    pass
                def script():
                    yield TouchGet()
            """),
        ) == []

    def test_silent_without_dispatch_module(self):
        # A run that did not lint repro/effects.py saw no `kind`
        # declaration and must not call everything unroutable.
        assert flow_codes(
            ("repro.workloads.mini", """
                from repro import effects
                class Touch(effects.Request):
                    pass
                def script():
                    yield Touch()
            """),
        ) == []

    def test_planted_unregistered_request_in_real_tree(self, src_sources):
        findings = mutate(src_sources, [(
            "repro/effects.py",
            "class Get(",
            "class Probe(Request):\n"
            "    __slots__ = ()\n\n\n"
            "def _probe_script():\n"
            "    yield Probe()\n\n\n"
            "class Get(",
        )])
        assert {f.rule for f in findings} == {"RF002", "RF003"}
        assert all("Probe" in f.message for f in findings)

    def test_abstract_base_not_flagged(self, src_analysis):
        # Request/StoreRequest/... have subclasses, so they are not
        # leaves and RF003 ignores them.
        leaves = src_analysis.effect_leaves()
        assert ("repro.effects", "Request") not in leaves
        assert ("repro.effects", "StoreRequest") not in leaves


# ---------------------------------------------------------------------------
# RF004 -- sanitizer isolation, transitively
# ---------------------------------------------------------------------------


class TestRF004:
    def test_mutation_leak_through_helper(self):
        findings = flow_findings(
            ("repro.san.minisan", """
                from repro.core.minicore import poke
                def observe():
                    return poke()
            """),
            ("repro.core.minicore", """
                def poke(store):
                    store.put(1, 2)
            """),
        )
        assert [f.rule for f in findings] == ["RF004"]
        assert "protocol-mutating" in findings[0].message

    def test_obs_leak_through_helper(self):
        findings = flow_findings(
            ("repro.san.minisan", """
                from repro.san.helper import report
                def observe():
                    report()
            """),
            ("repro.san.helper", """
                from repro.obs import emit
                def report():
                    emit("san", {})
            """),
            ("repro.obs", """
                def emit(name, payload):
                    return None
            """),
        )
        # The helper's own import, and the edge that leaves the observer
        # set; nothing on the observer that only calls the helper.
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("RF004", "<repro.san.helper>", 2),
            ("RF004", "<repro.san.helper>", 4),
        ]
        assert "imports from `repro.obs`" in findings[0].message

    def test_driver_modules_exempt(self):
        assert flow_codes(
            ("repro.san.scenarios", """
                from repro.core.minicore import poke
                def run_scenario():
                    return poke()
            """),
            ("repro.core.minicore", """
                def poke(store):
                    store.put(1, 2)
            """),
        ) == []

    def test_pure_shadow_read_is_silent(self):
        assert flow_codes(
            ("repro.san.minisan", """
                from repro.core.minicore import peek
                def observe():
                    return peek()
            """),
            ("repro.core.minicore", """
                def peek(store):
                    return store.get(1)
            """),
        ) == []

    def test_span_finish_leak_through_core_helper(self):
        # `span` binds obs instrumentation wherever it is called.
        findings = flow_findings(
            ("repro.san.minisan", """
                from repro.core.minicore import close
                def observe(span):
                    return close(span)
            """),
            ("repro.core.minicore", """
                def close(span):
                    span.finish()
            """),
        )
        assert [f.rule for f in findings] == ["RF004"]
        assert "repro.obs layer" in findings[0].message

    def test_node_crash_leak_through_core_helper(self):
        # `crash` is not a read-only accessor, so calling it on a
        # protocol receiver is a mutation, whatever its name.
        findings = flow_findings(
            ("repro.san.minisan", """
                from repro.core.minicore import stop
                def observe(node):
                    return stop(node)
            """),
            ("repro.core.minicore", """
                def stop(node):
                    node.crash()
            """),
        )
        assert [f.rule for f in findings] == ["RF004"]
        assert "protocol-mutating" in findings[0].message

    def test_own_statement_and_edge_report_once(self):
        # A mutating call the call graph also resolves is one finding.
        findings = flow_findings(
            ("repro.san.minisan", """
                from repro.core.minicore import Manager
                def observe(manager: Manager):
                    manager.recover()
            """),
            ("repro.core.minicore", """
                class Manager:
                    def recover(self):
                        self.state = 0
            """),
        )
        assert [f.rule for f in findings] == ["RF004"]

    def test_planted_leak_in_real_tree(self, src_sources):
        findings = mutate(src_sources, [(
            "san/si.py",
            "class SISanitizer(Interceptor):",
            "from repro.core.commit_manager import CommitManager\n\n"
            "def _poke(manager: CommitManager):\n"
            "    manager.recover()\n\n"
            "class SISanitizer(Interceptor):",
        )])
        assert "RF004" in {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Suppression integration
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_inline_suppression_silences_rf(self):
        findings = flow_findings(
            ("repro.core.mini", """
                from repro.helpers.entropy import pick
                def choose():
                    return pick()
            """),
            ("repro.helpers.entropy", """
                import random
                def pick():
                    return random.random()  # repro-lint: ignore[RF001]
            """),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_explain_rf_rule(self, capsys):
        assert lint_main(["--explain", "RF001"]) == 0
        out = capsys.readouterr().out
        assert "RF001" in out and "closure" in out

    def test_list_rules_includes_flow_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RF001", "RF002", "RF003", "RF004"):
            assert code in out
