"""The experiment registry: the CLI, the docs and the shape checks read
one ``EXPERIMENTS`` table (``repro.bench.experiments``)."""

import ast
import dataclasses
import pathlib
import re

import pytest

from repro.baselines import FoundationDBLike, VoltDBLike
from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, PROFILES, run_baseline

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestCli:
    def test_subsecond_entries_resolve_every_column(self, capsys):
        names = ["table1", "table2", "pushdown"]
        assert main(names + ["--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        for name in names:
            experiment = EXPERIMENTS[name]
            assert experiment.title in out
            assert f"[{name}: shape holds]" in out
            assert all(header in out for header in experiment.columns)

    @pytest.mark.parametrize("retired", ["suite", "smoke"])
    def test_retired_flags_are_rejected(self, retired, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([f"--{retired}", "isolation"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lost_shape_exits_1(self, monkeypatch, capsys):
        def lost(rows):
            raise AssertionError("the curve bent the wrong way")

        monkeypatch.setitem(
            EXPERIMENTS, "table2",
            dataclasses.replace(EXPERIMENTS["table2"], check=lost))
        assert main(["table2"]) == 1
        assert ("[table2: shape LOST -- the curve bent the wrong way]"
                in capsys.readouterr().out)


class TestChecksCanFail:
    """A check that cannot fail is not a check: hand-written rows that
    lost the paper's result are rejected."""

    def test_fig5_without_scale_out(self):
        rows = [{"replication_factor": rf, "processing_nodes": pns,
                 "tpmc": 100_000.0 / rf, "abort_rate": 0.05 * pns}
                for rf in (1, 2, 3) for pns in (1, 4)]
        with pytest.raises(AssertionError, match="no scale-out"):
            EXPERIMENTS["fig5"].check(rows)

    def test_table3_with_the_smoke_series(self):
        rows = [{"commit_managers": cms, "tpmc": tpmc, "abort_rate": aborts}
                for cms, tpmc, aborts in ((1, 333_000.0, 0.3843),
                                          (2, 229_000.0, 0.5565),
                                          (4, 105_000.0, 0.6379))]
        with pytest.raises(AssertionError, match="not flat"):
            EXPERIMENTS["table3"].check(rows)

    def test_fig11_with_sb_above_tb(self):
        rows = [{"buffering": strategy, "processing_nodes": 4, "tpmc": tpmc,
                 "hit_ratio": hits}
                for strategy, tpmc, hits in (("tb", 333_000.0, 0.0),
                                             ("sb", 355_000.0, 0.0136),
                                             ("sbvs10", 279_000.0, 0.19),
                                             ("sbvs1000", 291_000.0, 0.12))]
        with pytest.raises(AssertionError, match="TB should win or tie"):
            EXPERIMENTS["fig11"].check(rows)


class TestBaselineWindow:
    """At 11 nodes and the smoke profile's 8 warehouses the FDB-like engine
    takes 482 ms per transaction and the VoltDB-like one 689 ms."""

    @pytest.mark.parametrize("engine_cls", [VoltDBLike, FoundationDBLike])
    def test_smoke_window_measures_the_slowest_engines(self, engine_cls):
        row = run_baseline(PROFILES["smoke"], engine_cls, 11, "standard", 3)
        assert row["tpmc"] > 0.0 and row["latency_ms"] > 0.0

    def test_a_point_that_finished_nothing_is_an_error(self):
        too_short = dataclasses.replace(PROFILES["smoke"],
                                        baseline_duration_us=500_000.0)
        with pytest.raises(RuntimeError,
                           match=r"foundationdb at 11 nodes .* 0\.5 s window"):
            run_baseline(too_short, FoundationDBLike, 11, "standard", 3)


def test_design_index_names_exactly_the_registry():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    index = text[text.index("## 4. Per-experiment index"):
                 text.index("## 5. ")]
    rows = [line for line in index.splitlines()
            if line.startswith("|") and "---" not in line][1:]
    documented = [name for row in rows
                  for name in re.findall(r"`([a-z0-9-]+)`",
                                         row.split("|")[-2])]
    assert sorted(documented) == sorted(EXPERIMENTS)


def test_frozen_ledger_surface_is_documented():
    """Every name the frozen ledger imports from ``repro`` is listed, as
    ``module.name``, in docs/simulation.md "What the frozen ledger
    pins": a change to one of them is a change to the ledger's program."""
    text = (ROOT / "docs" / "simulation.md").read_text(encoding="utf-8")
    section = text[text.index("### What the frozen ledger pins"):]
    section = section[:section.index("\n#", 1)]
    imported = set()
    for path in sorted((ROOT / "benchmarks" / "ledger").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
    assert imported
    assert sorted(name for name in imported
                  if f"`{name}" not in section) == []
