"""Kill matrix: which checker catches which planted protocol bug.

    PYTHONPATH=src python tests/kill_matrix.py

Each row of :data:`MUTANTS` is one planted bug, ``(id, file, old, new,
why)``: the one occurrence of ``old`` in ``file`` becomes ``new``.  For
every row the script copies the checkout into a temporary directory,
plants the row there (never in the checkout) and runs every checker
column against the copy:

* one column per ``repro-lint --list-rules`` code -- a kill when that
  code's finding count over ``src tests examples benchmarks`` rises
  against the clean copy;
* ``san`` -- ``python -m repro.san`` under si, wsi and ssi, then
  ``REPRO_SANITIZE=1 pytest tests/test_si_invariants.py``: a kill when
  any of them fails;
* ``tier1`` -- ``pytest -x tests`` without the lint test files and
  ``test_kill_matrix.py`` (whose guard fails on every planted row by
  construction): a kill when it fails.

The clean copy must pass ``san`` and ``tier1``.  The result is printed
as a table and written to ``tests/kill_matrix.json``;
``tests/test_kill_matrix.py`` checks that every row still plants at HEAD
and that the JSON matches the current rows and columns.  A rule column
that kills no row on its own is a deletion candidate; a row no column
kills is the next correctness test to write.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "tests" / "kill_matrix.json"

#: Test files left out of the ``tier1`` column: the lint suites check
#: the rule columns themselves, and the guard checks the rows.
NOT_TIER1 = ("test_lint.py", "test_kill_matrix.py")

_PY = sys.executable

MUTANTS: List[Tuple[str, str, str, str, str]] = [
    # -- LL/SC, paired updates and abort reporting across yields
    (
        "gc_unconditional_prune",
        "src/repro/core/gc.py",
        "ok, _ = yield effects.PutIfVersion(DATA_SPACE, key, pruned,"
        " cell_version)",
        "yield effects.Put(DATA_SPACE, key, pruned)\n        ok = True",
        "lazy GC prunes with an unconditional Put: a commit landing "
        "between its Scan and the prune is lost",
    ),
    (
        "cm_absorb_yields_per_peer",
        "src/repro/core/commit_manager.py",
        "            value, _version = self.store_execute(\n"
        "                effects.Get(META_SPACE, _state_key(peer_id))\n"
        "            )",
        "            value, _version = yield effects.Get(\n"
        "                META_SPACE, _state_key(peer_id))",
        "peer absorption yields per peer: absorb_peers becomes a "
        "coroutine and a plain call absorbs nothing",
    ),
    (
        "cm_stripe_pair_torn",
        "src/repro/core/commit_manager.py",
        "            self.completed.mark_completed(tid)\n"
        "            self._next_stripe += 1\n"
        "\n"
        "    # -- read-only introspection",
        "            self.completed.mark_completed(tid)\n"
        "            yield effects.Sleep(1)\n"
        "            self._next_stripe += 1\n"
        "\n"
        "    # -- read-only introspection",
        "a yield between completing a retired stripe tid and moving the "
        "stripe cursor past it",
    ),
    (
        "txn_read_after_abort",
        "src/repro/core/transaction.py",
        "        yield effects.ReportAborted(self.tid)\n        if",
        "        yield effects.ReportAborted(self.tid)\n"
        "        leftover = yield from self.read_many(list(self._records))\n"
        "        if",
        "a manual abort reads through the transaction it just finished",
    ),
    (
        "cm_validator_not_released",
        "src/repro/core/commit_manager.py",
        "self.validator.on_aborted(tid)",
        "pass",
        "set_aborted keeps a validated-then-aborted writer in the WSI/SSI "
        "window, where it aborts later committers as a ghost",
    ),
    (
        "txn_abort_not_reported",
        "src/repro/core/transaction.py",
        "        abort_child = span.child(\"abort\") "
        "if span is not None else None\n"
        "        yield effects.ReportAborted(self.tid)",
        "        abort_child = span.child(\"abort\") "
        "if span is not None else None\n"
        "        yield effects.Sleep(0)",
        "a manual abort never reports to the commit manager, so the tid "
        "stays active and pins the lav",
    ),
    # -- effect hygiene: test_lint.py's seeds
    (
        "recovery_putifversion_unyielded",
        "src/repro/core/recovery.py",
        "ok, _ = yield effects.PutIfVersion(",
        "ok, _ = effects.PutIfVersion(",
        "the rollback's store-conditional is built but never yielded",
    ),
    (
        "txn_report_committed_unyielded",
        "src/repro/core/transaction.py",
        "        yield effects.ReportCommitted(self.tid)\n"
        "        if tail_child",
        "        effects.ReportCommitted(self.tid)\n"
        "        if tail_child",
        "a writing commit never reports to the commit manager",
    ),
    (
        "txn_fetch_not_delegated",
        "src/repro/core/transaction.py",
        "yield from self._fetch([key])",
        "self._fetch([key])",
        "an update calls its fetch coroutine without yield from: "
        "nothing is fetched",
    ),
    # -- determinism and isolation: test_lint.py's seeds
    (
        "fabric_wall_clock",
        "src/repro/runtime/fabric.py",
        "        now = self.sim.now\n        t_send = now\n",
        "        import time\n        now = time.time()\n"
        "        t_send = now\n",
        "the fabric times a request by the host clock",
    ),
    (
        "cm_wall_clock_two_deep",
        "src/repro/core/commit_manager.py",
        "        \"\"\"setCommitted(tid): the transaction's updates are "
        "applied.\"\"\"\n"
        "        self._finish(tid)",
        "        \"\"\"setCommitted(tid): the transaction's updates are "
        "applied.\"\"\"\n"
        "        def _clock_probe():\n"
        "            import time\n"
        "            return time.time()\n"
        "\n"
        "        def _audit_hook():\n"
        "            return _clock_probe()\n"
        "\n"
        "        _audit_hook()\n"
        "        self._finish(tid)",
        "set_committed reads the host clock two helpers deep",
    ),
    (
        "tpcc_wall_clock_via_helper",
        "src/repro/workloads/tpcc/transactions.py",
        "def new_order(ctx: TpccContext, params: NewOrderParams) "
        "-> Generator:\n"
        "    warehouse_table = ctx.table(\"warehouse\")",
        "def new_order(ctx: TpccContext, params: NewOrderParams) "
        "-> Generator:\n"
        "    def _stamp():\n"
        "        import time\n"
        "        return time.time()\n"
        "\n"
        "    _stamp()\n"
        "    warehouse_table = ctx.table(\"warehouse\")",
        "a TPC-C transaction reads the host clock through a nested helper",
    ),
    (
        "gc_yields_unroutable_request",
        "src/repro/core/gc.py",
        "    stats.passes += 1\n"
        "    rows = yield effects.Scan(DATA_SPACE, None, None)",
        "    stats.passes += 1\n"
        "\n"
        "    class Probe(effects.Request):\n"
        "        __slots__ = ()\n"
        "\n"
        "    yield Probe()\n"
        "    rows = yield effects.Scan(DATA_SPACE, None, None)",
        "lazy GC yields a request class that declares no kind",
    ),
    (
        "san_observer_mutates_start",
        "src/repro/san/si.py",
        "        displaced = self.shadow.begin(ctx_key, view)",
        "        def _pin_lav(start):\n"
        "            start.lav = base\n"
        "\n"
        "        _pin_lav(start)\n"
        "        displaced = self.shadow.begin(ctx_key, view)",
        "the SI sanitizer rewrites the lav of the start it observes",
    ),
    # -- the sanitizers' seeds (test_sanitizers.py)
    (
        "store_sc_unconditional",
        "src/repro/store/node.py",
        "        if expected_version is not None and current != expected_version:\n"
        "            return False, current\n",
        "",
        "the store-conditional ignores the expected version: last "
        "writer wins",
    ),
    (
        "txn_commit_puts_unconditional",
        "src/repro/core/transaction.py",
        "            DATA_SPACE, keys, records, expected\n",
        "            DATA_SPACE, keys, records\n",
        "the commit's put batch drops its expected versions: every "
        "LL/SC lands and the last writer wins",
    ),
    (
        "batch_put_not_replicated",
        "src/repro/store/cluster.py",
        "            self.replicate(pid, space, key)\n",
        "",
        "a node's put group never copies its keys to the backups: the "
        "replicas silently fall behind",
    ),
    (
        "gc_ignores_lav",
        "src/repro/core/record.py",
        "        candidates = [tid for tid in self.tids if tid <= lav]",
        "        candidates = list(self.tids)",
        "GC collects every version but the newest, ignoring the lav",
    ),
    (
        "read_ignores_snapshot",
        "src/repro/core/record.py",
        "        index = self.visible_index(snapshot)\n"
        "        return self.versions[index] if index >= 0 else None",
        "        return self.versions[0] if self.versions else None",
        "latest_visible returns the newest version whatever the snapshot",
    ),
    (
        "visibility_scan_dirty",
        "src/repro/core/record.py",
        "        if tids[0] <= base:",
        "        if True:",
        "the one visibility scan returns the newest version: dirty reads",
    ),
    # -- elasticity
    (
        "fabric_wrong_owner_skipped",
        "src/repro/runtime/fabric.py",
        "            if fabric.elastic_active:",
        "            if False:",
        "a storage node serves a message for a partition it no longer "
        "owns instead of raising WrongOwner",
    ),
    # -- one bug per RL rule; RL001 and RL002 at yield sites that no
    #    tier-1 test executes
    (
        "btree_root_race_cleanup_unyielded",
        "src/repro/index/btree.py",
        "            self._root_cache = None\n"
        "            yield effects.Delete(INDEX_SPACE, "
        "self._node_key(new_root_id))",
        "            self._root_cache = None\n"
        "            effects.Delete(INDEX_SPACE, self._node_key(new_root_id))",
        "a root grow that lost its CAS builds the cleanup Delete but never "
        "yields it: the orphaned root node leaks",
    ),
    (
        "coordinator_add_node_moves_nothing",
        "src/repro/elastic/coordinator.py",
        "            yield from self._run_moves(moves)\n"
        "            return node.node_id",
        "            self._run_moves(moves)\n"
        "            return node.node_id",
        "adding a storage node plans the rebalance but never runs it: the "
        "new node serves nothing",
    ),
    (
        "txn_precheck_iterates_a_set",
        "src/repro/core/transaction.py",
        "        for key in self._writes:",
        "        for key in set(self._writes):",
        "the commit precheck walks the write set in hash order, so which "
        "conflict is reported depends on the hash seed",
    ),
    (
        "effects_get_without_slots",
        "src/repro/effects.py",
        "return ``(None, 0)``.  The cell version is the LL token for "
        "LL/SC.\"\"\"\n\n    __slots__ = ()\n",
        "return ``(None, 0)``.  The cell version is the LL token for "
        "LL/SC.\"\"\"\n",
        "Get, the most allocated request, gets a per-instance __dict__",
    ),
    (
        "deployment_shares_default_interceptors",
        "src/repro/runtime/deployment.py",
        "                 interceptors: Sequence[Interceptor] = ()):\n"
        "        self.sim = Simulator()\n"
        "        super().__init__(config, clock=lambda: self.sim.now)\n"
        "        self.fabric = SimFabric(\n"
        "            self.sim, self.cluster, self.commit_managers, config\n"
        "        )\n"
        "        self.metrics = metrics\n"
        "        self.interceptors = list(interceptors)\n",
        "                 interceptors: Sequence[Interceptor] = []):\n"
        "        self.sim = Simulator()\n"
        "        super().__init__(config, clock=lambda: self.sim.now)\n"
        "        self.fabric = SimFabric(\n"
        "            self.sim, self.cluster, self.commit_managers, config\n"
        "        )\n"
        "        self.metrics = metrics\n"
        "        self.interceptors = interceptors\n",
        "every deployment built without interceptors shares one default "
        "list: an elastic run's WrongOwnerRedirect leaks into the next",
    ),
    (
        "recovery_completes_before_rollback",
        "src/repro/core/recovery.py",
        "        active_tids.extend(manager.active_tids_of(pn_id))\n",
        "        active_tids.extend(manager.active_tids_of(pn_id))\n"
        "        for tid in manager.active_tids_of(pn_id):\n"
        "            manager.set_aborted(tid)\n",
        "PN recovery completes the dead node's tids at the commit manager, "
        "behind the dispatcher, before their versions are rolled back",
    ),
    (
        "table_scan_writes_read_set",
        "src/repro/sql/table.py",
        "            self.txn.note_scanned([key for key, _value, _cell in rows])",
        "            self.txn._read_keys.update(\n"
        "                dict.fromkeys(key for key, _value, _cell in rows))",
        "the table scan fills the transaction's read set directly instead "
        "of through note_scanned",
    ),
    (
        "coordinator_bumps_epoch",
        "src/repro/elastic/coordinator.py",
        "            self.cluster.detach_node(node_id)\n",
        "            self.cluster.detach_node(node_id)\n"
        "            self.partition_map.epoch += 1\n",
        "removing a storage node bumps the partition-map epoch directly: "
        "no epoch_log entry, and a route cached at the old epoch looks stale",
    ),
]


def rule_codes() -> List[str]:
    """The ``--list-rules`` codes, in order."""
    from repro.lint.engine import ALL_RULES
    return [rule.code for rule in ALL_RULES]


def columns() -> List[str]:
    return rule_codes() + ["san", "tier1"]


_CACHES = shutil.ignore_patterns(
    "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def _copy_checkout(dst: Path) -> None:
    dst.mkdir()
    for entry in sorted(ROOT.iterdir()):
        if entry.name.startswith("."):
            continue
        if entry.is_dir():
            shutil.copytree(entry, dst / entry.name, ignore=_CACHES)
        else:
            shutil.copy2(entry, dst / entry.name)


def plant(tree: Path, row: Tuple[str, str, str, str, str]) -> None:
    _id, file, old, new, _why = row
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{_id}: `old` occurs {text.count(old)} times "
                         f"in {file}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def _run(tree: Path, argv: List[str], **env: str) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_OBS", "REPRO_SANITIZE")}
    environ.update(PYTHONPATH=str(tree / "src"), **env)
    return subprocess.run([_PY, *argv], cwd=tree, env=environ,
                          capture_output=True, text=True)


_FINDING = re.compile(r"^\S+:\d+:\d+: (R[A-Z]\d{3}) ", re.M)


def lint_counts(tree: Path) -> Dict[str, int]:
    out = _run(tree, ["-m", "repro.lint", "src", "tests", "examples",
                      "benchmarks"]).stdout
    counts: Dict[str, int] = {}
    for code in _FINDING.findall(out):
        counts[code] = counts.get(code, 0) + 1
    return counts


def san_fails(tree: Path) -> bool:
    for mode in ("si", "wsi", "ssi"):
        if _run(tree, ["-m", "repro.san", "--isolation", mode]).returncode:
            return True
    return _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                       "tests/test_si_invariants.py"],
                REPRO_SANITIZE="1").returncode != 0


def tier1_failure(tree: Path) -> str:
    """The first failing tier-1 test id, or "" when the suite passes."""
    ignores = [f"--ignore=tests/{name}" for name in NOT_TIER1]
    proc = _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                       "tests", *ignores])
    if proc.returncode == 0:
        return ""
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed[0] if failed else f"exit {proc.returncode}"


def measure(tree: Path, clean: Dict[str, int]) -> Tuple[List[str], str]:
    """(killing columns, first tier-1 failure) of the tree as planted."""
    counts = lint_counts(tree)
    killers = [code for code in rule_codes()
               if counts.get(code, 0) > clean.get(code, 0)]
    if san_fails(tree):
        killers.append("san")
    failure = tier1_failure(tree)
    if failure:
        killers.append("tier1")
    return killers, failure


def render(matrix: Dict[str, List[str]]) -> str:
    cols = columns()
    width = max(len(row_id) for row_id in matrix)
    lines = [" " * width + "  " + " ".join(cols)]
    for row_id, killers in matrix.items():
        marks = " ".join(("x" if col in killers else ".").center(len(col))
                         for col in cols)
        lines.append(f"{row_id:<{width}}  {marks}".rstrip())
    return "\n".join(lines)


def dump(matrix: Dict[str, List[str]]) -> str:
    """One row per line, so a diff of the file reads as a diff of rows."""
    rows = ",\n".join(f"    {json.dumps(row_id)}: {json.dumps(killers)}"
                      for row_id, killers in matrix.items())
    return (f"{{\n  \"columns\": {json.dumps(columns())},\n"
            f"  \"rows\": {{\n{rows}\n  }}\n}}\n")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        clean_tree = Path(tmp) / "clean"
        _copy_checkout(clean_tree)
        clean = lint_counts(clean_tree)
        if san_fails(clean_tree) or tier1_failure(clean_tree):
            print("kill_matrix: the clean tree fails san or tier1",
                  file=sys.stderr)
            return 1
        matrix: Dict[str, List[str]] = {}
        for row in MUTANTS:
            tree = Path(tmp) / row[0]
            shutil.copytree(clean_tree, tree, ignore=_CACHES)
            plant(tree, row)
            killers, failure = measure(tree, clean)
            shutil.rmtree(tree)
            matrix[row[0]] = killers
            print(f"{row[0]}: {' '.join(killers) or 'SURVIVES'}"
                  f"{f'  (tier1: {failure})' if failure else ''}",
                  flush=True)
    OUTPUT.write_text(dump(matrix), encoding="utf-8")
    print()
    print(render(matrix))
    return 0


if __name__ == "__main__":
    sys.exit(main())
