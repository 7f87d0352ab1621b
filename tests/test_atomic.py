"""Tests for repro-atomic, the yield-point analysis under repro-lint's
RA rules: every RA rule catches its planted interleaving bug with a
yield-site witness and stays quiet on the clean variant, and the
seeded-mutation guards prove the analyzer would have caught real bugs
in core/."""

import os
import textwrap
from pathlib import Path

import pytest

from repro.lint import SourceModule, lint_sources
from repro.lint.atomic import ATOMIC_RULES
from repro.lint.cli import main as lint_main
from repro.lint.engine import build_index, load_sources

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")


def _modules(*pairs):
    return [
        SourceModule(f"<{module}>", module, textwrap.dedent(text))
        for module, text in pairs
    ]


def atomic_findings(*pairs):
    return [
        f for f in lint_sources(_modules(*pairs)).findings
        if f.rule.startswith("RA")
    ]


def atomic_codes(*pairs):
    return sorted({f.rule for f in atomic_findings(*pairs)})


@pytest.fixture(scope="module")
def src_sources():
    return load_sources([SRC], relative_to=str(REPO_ROOT))


@pytest.fixture(scope="module")
def src_atomic(src_sources):
    return build_index(src_sources).flow.atomic


def mutate(src_sources, edits):
    """Re-lint the real tree with planted text edits; RA findings."""
    sources = list(src_sources)
    for path_suffix, old, new in edits:
        hit = False
        for i, source in enumerate(sources):
            if source.path.replace(os.sep, "/").endswith(path_suffix):
                assert old in source.text, f"pattern missing in {source.path}"
                sources[i] = SourceModule(
                    source.path, source.module,
                    source.text.replace(old, new, 1))
                hit = True
        assert hit, path_suffix
    # Only the RA rules run: other findings would be filtered out anyway.
    return lint_sources(sources, rules=ATOMIC_RULES).findings


# ---------------------------------------------------------------------------
# RA001: stale pre-yield read guards an unconditional shared write
# ---------------------------------------------------------------------------

_CM_FIXTURE_HEADER = """\
    from repro import effects
    from repro.core.commit_manager import CommitManager

    class Worker(CommitManager):
"""


class TestRA001:
    def test_stale_guard_over_unconditional_put(self):
        findings = atomic_findings(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def drain(self, key):
            count = self._active_base.get(key)
            yield effects.Sleep(1)
            if count is not None:
                yield effects.Put("data", key, count)
    """))
        assert [f.rule for f in findings] == ["RA001"]
        # The witness names the guard, the footprint, and the yield site.
        assert "_active_base" in findings[0].message
        assert "preemption point" in findings[0].message

    def test_conditional_putifversion_is_sanctioned(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def drain(self, key):
            count, ver = yield effects.Get("data", key)
            yield effects.Sleep(1)
            if count is not None:
                ok, _ = yield effects.PutIfVersion("data", key, count, ver)
    """)) == []

    def test_reread_after_yield_is_clean(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def drain(self, key):
            count = self._active_base.get(key)
            yield effects.Sleep(1)
            count = self._active_base.get(key)
            if count is not None:
                yield effects.Put("data", key, count)
    """)) == []

    def test_outside_atomic_packages_is_silent(self):
        assert atomic_codes(("repro.bench.fixture", _CM_FIXTURE_HEADER + """\
        def drain(self, key):
            count = self._active_base.get(key)
            yield effects.Sleep(1)
            if count is not None:
                yield effects.Put("data", key, count)
    """)) == []


# ---------------------------------------------------------------------------
# RA002: shared collection mutated on both sides of a yield
# ---------------------------------------------------------------------------


class TestRA002:
    def test_subscript_stores_across_yield(self):
        findings = atomic_findings(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def absorb(self, peers):
            for peer in peers:
                value = yield effects.Get("meta", peer)
                self._peer_lav[peer] = value
    """))
        assert [f.rule for f in findings] == ["RA002"]
        assert "_peer_lav" in findings[0].message

    def test_reread_after_yield_silences(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def absorb(self, peers):
            for peer in peers:
                value = yield effects.Get("meta", peer)
                if peer not in self._peer_lav:
                    self._peer_lav[peer] = value
    """)) == []

    def test_single_segment_mutations_are_clean(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def absorb(self, peers):
            values = yield effects.Get("meta", "all")
            for peer in peers:
                self._peer_lav[peer] = values
    """)) == []

    def test_inline_suppression(self):
        src = _CM_FIXTURE_HEADER + """\
        def absorb(self, peers):
            for peer in peers:
                value = yield effects.Get("meta", peer)
                # repro-lint: ignore[RA002] single writer per peer id
                self._peer_lav[peer] = value
    """
        result = lint_sources(_modules(("repro.core.fixture", src)))
        assert [f.rule for f in result.findings] == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# RA003: invariant pair torn across a yield
# ---------------------------------------------------------------------------


class TestRA003:
    def test_pair_split_by_sleep(self):
        findings = atomic_findings(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def retire(self, tid):
            self.completed.mark_completed(tid)
            yield effects.Sleep(1)
            self._next_stripe += 1
    """))
        codes = [f.rule for f in findings]
        assert "RA003" in codes
        ra3 = next(f for f in findings if f.rule == "RA003")
        assert "completed" in ra3.message and "_next_stripe" in ra3.message

    def test_pair_same_segment_is_clean(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def retire(self, tid):
            yield effects.Sleep(1)
            self.completed.mark_completed(tid)
            self._next_stripe += 1
    """)) == []

    def test_single_member_write_is_clean(self):
        assert atomic_codes(("repro.core.fixture", _CM_FIXTURE_HEADER + """\
        def retire(self, tid):
            self.completed.mark_completed(tid)
            yield effects.Sleep(1)
    """)) == []


# ---------------------------------------------------------------------------
# RA004: transaction typestate
# ---------------------------------------------------------------------------

# Annotations only type a name when the named class is in the project
# index, so fixture runs carry stand-in modules for the real ones.
_TXN_STUB = ("repro.core.transaction", """\
    class TxnState:
        RUNNING = "running"
        COMMITTED = "committed"
        ABORTED = "aborted"

    class Transaction:
        def commit(self):
            yield None

        def abort(self):
            yield None

        def read(self, key):
            yield None

        def read_many(self, keys):
            yield None
""")

_PN_STUB = ("repro.core.processing_node", """\
    from repro.core.transaction import Transaction

    class ProcessingNode:
        def begin(self):
            yield None
            return Transaction()
""")

_TXN_FIXTURE = """\
    from repro import effects
    from repro.core.transaction import Transaction

    def finish_and_use(txn: Transaction):
        yield from txn.commit()
        value = yield from txn.read("key")
        return value
"""


class TestRA004:
    def test_read_after_commit(self):
        findings = atomic_findings(
            _TXN_STUB, ("repro.sql.fixture", _TXN_FIXTURE))
        assert [f.rule for f in findings] == ["RA004"]
        assert ".read(...)" in findings[0].message
        assert ".commit(...)" in findings[0].message

    def test_double_finish(self):
        findings = atomic_findings(_TXN_STUB, ("repro.sql.fixture", """\
    from repro.core.transaction import Transaction

    def twice(txn: Transaction):
        yield from txn.abort()
        yield from txn.abort()
    """))
        assert [f.rule for f in findings] == ["RA004"]
        assert "finished again" in findings[0].message

    def test_branch_join_keeps_agreeing_state_only(self):
        # Finish on one branch only: the join forgets the state, so the
        # later use is not provably after a finish -- silent.
        assert atomic_codes(_TXN_STUB, ("repro.sql.fixture", """\
    from repro.core.transaction import Transaction

    def maybe(txn: Transaction, flag):
        if flag:
            yield from txn.abort()
            return
        value = yield from txn.read("key")
        return value
    """)) == []

    def test_rebinding_resets_contract(self):
        assert atomic_codes(_TXN_STUB, _PN_STUB, ("repro.sql.fixture", """\
    from repro.core.transaction import Transaction
    from repro.core.processing_node import ProcessingNode

    def recycle(pn: ProcessingNode, txn: Transaction):
        yield from txn.commit()
        txn = yield from pn.begin()
        value = yield from txn.read("key")
        return value
    """)) == []

    def test_propagated_finish_is_maybe_not_fired(self):
        # A callee that (per its summary) finishes the transaction
        # downgrades certainty; a later direct use stays silent.
        assert atomic_codes(_TXN_STUB, ("repro.sql.fixture", """\
    from repro.core.transaction import Transaction

    def helper(txn: Transaction, flag):
        if flag:
            yield from txn.abort()

    def outer(txn: Transaction, flag):
        yield from helper(txn, flag)
        value = yield from txn.read("key")
        return value
    """)) == []

    def test_alias_of_finished_attribute_chain(self):
        # `current = self._txn` inherits the chain's state.
        findings = atomic_findings(_TXN_STUB, ("repro.sql.fixture", """\
    from repro.core.transaction import Transaction

    class Session:
        def __init__(self, txn: Transaction):
            self._txn = txn

        def close_then_read(self):
            yield from self._txn.commit()
            current = self._txn
            value = yield from current.read("key")
            return value
    """))
        assert [f.rule for f in findings] == ["RA004"]
        assert "`current`" in findings[0].message


# ---------------------------------------------------------------------------
# RA005: abort reporting obligations
# ---------------------------------------------------------------------------


class TestRA005:
    def test_state_abort_without_report(self):
        findings = atomic_findings(_TXN_STUB, ("repro.core.fixture", """\
    from repro import effects
    from repro.core.transaction import Transaction, TxnState

    def silent_abort(txn: Transaction):
        txn.state = TxnState.ABORTED
        yield effects.Sleep(1)
    """))
        assert [f.rule for f in findings] == ["RA005"]
        assert "ReportAborted" in findings[0].message

    def test_state_abort_with_report_is_clean(self):
        assert atomic_codes(_TXN_STUB, ("repro.core.fixture", """\
    from repro import effects
    from repro.core.transaction import Transaction, TxnState

    def loud_abort(txn: Transaction):
        txn.state = TxnState.ABORTED
        yield effects.ReportAborted(txn.tid)
    """)) == []

    def test_register_without_on_aborted(self):
        findings = atomic_findings(("repro.core.fixture", """\
    class Pipeline:
        def __init__(self, validator):
            self.validator = validator

        def admit(self, tid, writes):
            return self.validator.validate_and_register(tid, writes)
    """))
        assert [f.rule for f in findings] == ["RA005"]
        assert "on_aborted" in findings[0].message

    def test_register_with_on_aborted_is_clean(self):
        assert atomic_codes(("repro.core.fixture", """\
    class Pipeline:
        def __init__(self, validator):
            self.validator = validator

        def admit(self, tid, writes):
            return self.validator.validate_and_register(tid, writes)

        def drop(self, tid):
            self.validator.on_aborted(tid)
    """)) == []


# ---------------------------------------------------------------------------
# Seeded-mutation guards: plant real interleaving bugs in core/ and
# assert the analyzer reports them with a yield-site witness
# ---------------------------------------------------------------------------


class TestSeededMutations:
    def test_gc_unconditional_put_is_caught(self, src_sources):
        """Replacing lazy GC's LL/SC prune write with an unconditional
        Put reintroduces the lost-update race RA001 exists for."""
        findings = mutate(src_sources, [(
            "core/gc.py",
            "ok, _ = yield effects.PutIfVersion(DATA_SPACE, key, pruned,"
            " cell_version)",
            "yield effects.Put(DATA_SPACE, key, pruned)",
        )])
        assert [f.rule for f in findings] == ["RA001"]
        message = findings[0].message
        # Witness: guard value origin (the Scan yield) + preemption point.
        assert "yield effects.Scan(...)" in message
        assert "preemption point at line" in message

    def test_cm_absorb_coroutine_is_caught(self, src_sources):
        """Turning the synchronous peer-absorb loop into a coroutine
        that Gets each peer state across a yield tears the peer maps."""
        findings = mutate(src_sources, [(
            "core/commit_manager.py",
            "            value, _version = self.store_execute(\n"
            "                effects.Get(META_SPACE, _state_key(peer_id))\n"
            "            )",
            "            value, _version = yield effects.Get(\n"
            "                META_SPACE, _state_key(peer_id))",
        )])
        assert {f.rule for f in findings} == {"RA002"}
        assert any("_peer_lav" in f.message or "_peer_last_tid" in f.message
                   for f in findings)
        assert all("preemption point at line" in f.message
                   for f in findings)

    def test_cm_stripe_pair_torn_is_caught(self, src_sources):
        """A yield between mark_completed and the stripe-cursor bump
        lets peers observe a completed tid the cursor can still hand
        out -- the RA003 invariant pair."""
        findings = mutate(src_sources, [(
            "core/commit_manager.py",
            "            self.completed.mark_completed(tid)\n"
            "            self._next_stripe += 1\n"
            "\n"
            "    # -- read-only introspection",
            "            self.completed.mark_completed(tid)\n"
            "            yield effects.Sleep(1)\n"
            "            self._next_stripe += 1\n"
            "\n"
            "    # -- read-only introspection",
        )])
        codes = {f.rule for f in findings}
        assert "RA003" in codes
        ra3 = next(f for f in findings if f.rule == "RA003")
        assert "completed" in ra3.message
        assert "_next_stripe" in ra3.message
        assert "preemption point at line" in ra3.message

    def test_txn_use_after_abort_is_caught(self, src_sources):
        """Reading through the transaction after abort released its
        snapshot is the RA004 typestate violation."""
        findings = mutate(src_sources, [(
            "core/transaction.py",
            "        yield effects.ReportAborted(self.tid)\n"
            "        if",
            "        yield effects.ReportAborted(self.tid)\n"
            "        leftover = yield from self.read_many("
            "list(self._cache))\n"
            "        if",
        )])
        assert [f.rule for f in findings] == ["RA004"]
        message = findings[0].message
        assert "state = TxnState.ABORTED" in message
        assert ".read_many(...)" in message

    def test_dropped_on_aborted_is_caught(self, src_sources):
        """Deleting the validator release on the abort path leaks every
        aborted writer into the SSI in-flight window -- RA005(b)."""
        findings = mutate(src_sources, [(
            "core/commit_manager.py",
            "self.validator.on_aborted(tid)",
            "pass",
        )])
        assert [f.rule for f in findings] == ["RA005"]
        assert "validate_and_register" in findings[0].message

    def test_dropped_report_aborted_is_caught(self, src_sources):
        """An abort that flips the state but never notifies the commit
        manager pins the GC horizon forever -- RA005(a)."""
        findings = mutate(src_sources, [(
            "core/transaction.py",
            "        abort_child = span.child(\"abort\") "
            "if span is not None else None\n"
            "        yield effects.ReportAborted(self.tid)",
            "        abort_child = span.child(\"abort\") "
            "if span is not None else None\n"
            "        yield effects.Sleep(0)",
        )])
        assert [f.rule for f in findings] == ["RA005"]
        assert "ReportAborted" in findings[0].message


# ---------------------------------------------------------------------------
# Analysis facts the RA rules build on
# ---------------------------------------------------------------------------


class TestYieldSummaries:
    def test_shipped_cm_methods_are_synchronous(self, src_atomic):
        # The stripe-pair writers must have no preemption points at all:
        # that is the invariant RA003 freezes.
        for method in ("_skip_stripe_below", "_finish", "start"):
            node = ("repro.core.commit_manager", f"CommitManager.{method}")
            assert src_atomic.graph.function_info(node)["gen"] is False, \
                method

    def test_report_aborted_closure_covers_finish_abort(self, src_atomic):
        assert ("repro.core.transaction",
                "Transaction._finish_abort") in src_atomic.report_aborted
        assert ("repro.core.transaction",
                "Transaction.abort") in src_atomic.report_aborted


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_list_rules_renders_ra_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RA001", "RA002", "RA003", "RA004", "RA005"):
            assert f"{code} " in out

    def test_explain_ra_rule(self, capsys):
        assert lint_main(["--explain", "RA004"]) == 0
        out = capsys.readouterr().out
        assert "RA004" in out
        assert "typestate" in out.lower() or "contract" in out.lower()
