"""Smoke test of the performance ledger.

Lives outside ``testpaths`` so tier-1 time is unchanged; run it with
``python -m pytest benchmarks/ledger -q`` (under a minute).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import END_TO_END, PER_LAYER  # noqa: E402
from run import SCRUBBED_ENV  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _clean_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        env=_clean_env(), cwd=ROOT, text=True, stdout=subprocess.PIPE,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout
    assert done.stdout.rstrip().endswith('"claim": null}')
    with open(out, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    report["path"] = str(out)
    return report


def test_benchmark_json_is_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        spec["end_to_end"][0].items()


def test_every_workload_reports_every_end_to_end_metric(smoke):
    assert list(smoke["workloads"]) == list(WORKLOADS)
    for name, entry in smoke["workloads"].items():
        assert set(entry["end_to_end"]) == {m.name for m in END_TO_END}, name
        for summary in entry["end_to_end"].values():
            assert summary["median"] > 0


def test_no_failures(smoke):
    for name, entry in smoke["workloads"].items():
        assert entry["failed_share"] == 0, (name, entry["problems"])
    assert smoke["claim"] is None


def test_per_layer_run_reports_every_metric_and_a_whole_trace():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "ycsb_a_zipf", "--seed", "1",
         "--seconds", "0.8", "--trace", "1", "--smoke"],
        env=_clean_env(), cwd=ROOT, text=True, stdout=subprocess.PIPE,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in PER_LAYER}
    with open(os.path.join(HERE, "out", "trace-ycsb_a_zipf.json"),
              encoding="utf-8") as handle:
        trace = json.load(handle)
    shares = [layer["self_share"] for layer in trace["layers"].values()]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert trace["edges"]


def test_ledger_agrees_with_itself(smoke):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         smoke["path"], smoke["path"]],
        text=True, stdout=subprocess.PIPE,
    )
    assert done.returncode == 0, done.stdout


@pytest.mark.parametrize("flag", ["REPRO_OBS", "REPRO_SANITIZE"])
def test_refuses_to_measure_with_tooling_switched_on(flag):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "ycsb_a_zipf", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        env=_clean_env(**{flag: "1"}), cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert done.returncode != 0
    assert flag in done.stderr
    assert not done.stdout.strip()
