"""Kill matrix: which checker catches which planted protocol bug.

    PYTHONPATH=src python tests/kill_matrix.py [--rows ID [ID ...]]

Each row of :data:`MUTANTS` is one planted bug, ``(id, file, old, new,
why)``: the one occurrence of ``old`` in ``file`` becomes ``new``.  For
every row the script copies the checkout into a temporary directory,
plants the row there (never in the checkout) and runs every checker
column against the copy:

* ``san`` -- ``python -m repro.san`` under si, wsi and ssi, then
  ``REPRO_SANITIZE=1 pytest tests/test_si_invariants.py``: a kill when
  any of them fails;
* ``tier1`` -- ``pytest -x`` over the tier-1 test files that do not
  import ``repro.san``, without ``test_kill_matrix.py`` (whose guard
  fails on every planted row by construction): a kill when it fails;
* ``tier1_san`` -- ``pytest -x`` over the tier-1 test files that import
  ``repro.san`` (the sanitizers' own tests and the tests that attach
  them), so what the sanitizers catch shows apart from the rest of
  tier-1.

The clean copy must pass every column.  The result is printed as a
table and written to ``tests/kill_matrix.json``; ``--rows`` runs the
same clean-tree gate, then re-measures only the named rows and rewrites
only their entries (the columns must be unchanged since the last full
run).  ``tests/test_kill_matrix.py`` checks that every row still plants
at HEAD, that the JSON matches the current rows and columns, and that
every row has a killer: a row no column kills is the next correctness
test to write.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "tests" / "kill_matrix.json"

#: Test files left out of the tier-1 columns: the guard checks the
#: rows themselves.
NOT_TIER1 = ("test_kill_matrix.py",)

#: An import of ``repro.san`` puts a test file in ``tier1_san``.
_IMPORTS_SAN = re.compile(r"^\s*(?:from|import) repro\.san\b", re.M)

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
    # -- effect hygiene
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
    # -- determinism and isolation
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
    (
        "san_gc_pass_after_fold",
        "src/repro/san/si.py",
        "                self.gc.check(ctx_key, observed)\n"
        "                self._fold(ctx_key, observed)\n",
        "                self._fold(ctx_key, observed)\n"
        "                self.gc.check(ctx_key, observed)\n",
        "the GC checks run after the SI fold, against a shadow that "
        "already holds the pruning write: a prune looks like no change",
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
    # -- one bug per rule of the retired static analyzer; runtime tests
    #    kill each of them
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
        "src/repro/elastic/migration.py",
        "            yield from self.run_moves(plan_rebalance(pmap))\n"
        "        return node_id",
        "            self.run_moves(plan_rebalance(pmap))\n"
        "        return node_id",
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
        "table_scan_skips_read_set",
        "src/repro/sql/table.py",
        "            self.txn.note_scanned([key for key, _value, _cell in rows])",
        "            pass",
        "a table scan under WSI/SSI leaves its keys out of the read set: "
        "a concurrent write to a scanned row goes unvalidated",
    ),
    (
        "unique_dead_entry_counts_as_live",
        "src/repro/sql/table.py",
        "return payload is not TOMBSTONE and encode_key(",
        "return True or payload is not TOMBSTONE and encode_key(",
        "the unique check counts an index entry whose row was deleted (or "
        "re-keyed) as live: a deleted unique key can never be re-inserted",
    ),
    (
        "coordinator_bumps_epoch",
        "src/repro/elastic/migration.py",
        "        cluster.detach_node(node_id)\n",
        "        cluster.detach_node(node_id)\n"
        "        cluster.partition_map.epoch += 1\n",
        "removing a storage node bumps the partition-map epoch directly: "
        "no epoch_log entry, and a route cached at the old epoch looks stale",
    ),
]


def columns() -> List[str]:
    return ["san", "tier1", "tier1_san"]


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


def san_fails(tree: Path) -> bool:
    for mode in ("si", "wsi", "ssi"):
        if _run(tree, ["-m", "repro.san", "--isolation", mode]).returncode:
            return True
    return _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                       "tests/test_si_invariants.py"],
                REPRO_SANITIZE="1").returncode != 0


def tier1_files() -> Dict[str, List[str]]:
    """The test files of the ``tier1`` and ``tier1_san`` columns."""
    files: Dict[str, List[str]] = {"tier1": [], "tier1_san": []}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name in NOT_TIER1:
            continue
        column = "tier1_san" if _IMPORTS_SAN.search(
            path.read_text(encoding="utf-8")) else "tier1"
        files[column].append(f"tests/{path.name}")
    return files


def tier1_failure(tree: Path, files: List[str]) -> str:
    """The first failing test id among ``files``, or "" when they pass."""
    proc = _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                       *files])
    if proc.returncode == 0:
        return ""
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed[0] if failed else f"exit {proc.returncode}"


def measure(tree: Path) -> Tuple[List[str], str]:
    """(killing columns, first tier-1 failure per column) of the tree
    as planted."""
    killers = ["san"] if san_fails(tree) else []
    failures = []
    for column, files in tier1_files().items():
        failure = tier1_failure(tree, files)
        if failure:
            killers.append(column)
            failures.append(f"{column}: {failure}")
    return killers, "; ".join(failures)


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Plant each kill-matrix row and record its killers.")
    parser.add_argument(
        "--rows", nargs="+", metavar="ID",
        help="re-measure only these rows and rewrite only their entries")
    args = parser.parse_args(argv)
    selected = MUTANTS
    matrix: Dict[str, List[str]] = {}
    if args.rows:
        unknown = sorted(set(args.rows) - {row[0] for row in MUTANTS})
        if unknown:
            parser.error(f"unknown row(s): {' '.join(unknown)}")
        recorded = json.loads(OUTPUT.read_text(encoding="utf-8"))
        if recorded["columns"] != columns():
            parser.error("the columns changed since the last full run; "
                         "run without --rows")
        selected = [row for row in MUTANTS if row[0] in args.rows]
        matrix = recorded["rows"]
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        clean_tree = Path(tmp) / "clean"
        _copy_checkout(clean_tree)
        if san_fails(clean_tree) or any(
                tier1_failure(clean_tree, files)
                for files in tier1_files().values()):
            print("kill_matrix: the clean tree fails san or tier-1",
                  file=sys.stderr)
            return 1
        for row in selected:
            tree = Path(tmp) / row[0]
            shutil.copytree(clean_tree, tree, ignore=_CACHES)
            plant(tree, row)
            killers, failure = measure(tree)
            shutil.rmtree(tree)
            matrix[row[0]] = killers
            print(f"{row[0]}: {' '.join(killers) or 'SURVIVES'}"
                  f"{f'  ({failure})' if failure else ''}",
                  flush=True)
    missing = [row[0] for row in MUTANTS if row[0] not in matrix]
    if missing:
        print(f"kill_matrix: no recorded entry for {' '.join(missing)}; "
              "name them in --rows", file=sys.stderr)
        return 1
    matrix = {row[0]: matrix[row[0]] for row in MUTANTS}
    OUTPUT.write_text(dump(matrix), encoding="utf-8")
    print()
    print(render(matrix))
    return 0


if __name__ == "__main__":
    sys.exit(main())
