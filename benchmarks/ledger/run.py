"""The layered performance ledger: one command, five workloads.

Two ways to call it:

* **one run** (what the benchmark driver calls)::

      python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

  ``--trace 0`` measures the end-to-end metrics with tracing off;
  ``--trace 1`` measures every per-layer metric (exact counts from an
  untraced half-length run, self-time shares from its cProfile'd twin,
  probes, tooling overhead) and writes ``out/trace-W.json``.  The last
  stdout line is ``{"correct", "attempted", "failed", "metrics"}``.

* **the ledger** (no ``--trace``)::

      python3 benchmarks/ledger/run.py [--seed N] [--workload W] [--reps 3]
                                       [--smoke] [--out FILE]

  runs every workload strictly one after another, each repetition in a
  fresh subprocess of the one-run form, aggregates medians and quartiles,
  cross-checks digests, and writes ``out/ledger.json`` for ``compare.py``.

Every number states its clock: ``host_*`` / ``setup_s`` are time of this
CPython process in reference seconds (wall time with the sandbox's CPU-speed
drift divided out, see ``hostclock.py``), ``sim_*`` are simulated time of the
modelled cluster.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    from repro.san import make_sanitizers
except ImportError:
    sys.exit(f"no program to measure: cannot import repro from {ROOT}/src")

from checks import check_outputs  # noqa: E402
from hostclock import HostClock  # noqa: E402
from layers import (END_TO_END, LAYERS, PER_LAYER, exact_metrics,  # noqa: E402
                    fold_profile, store_counters)
from probes import run_probes  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS, Workload  # noqa: E402

LEDGER_SCHEMA = "repro-ledger/1"

#: Tooling switches that would silently change what is measured.
SCRUBBED_ENV = ("REPRO_OBS", "REPRO_SANITIZE", "REPRO_BENCH_PROFILE")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: The traced pair and the tooling rows run at this share of the length.
TRACE_FRACTION = 0.5
SMOKE_FRACTION = 0.1
#: How often the host clock re-times its reference kernel during ``run()``.
LAPS_PER_SECOND = 5


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    """A finished ``build -> load -> run`` of one deployment.

    ``setup_s`` and ``host_s`` are reference seconds (see ``hostclock``);
    ``wall_s`` is the raw wall time of ``run()``.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 setup_reps: int = 1, profiler: Optional[cProfile.Profile] = None,
                 **build_args: Any):
        setups: List[float] = []
        deployment = None
        for _ in range(setup_reps):
            # Drop the previous deployment first so peak memory is one
            # deployment's, not two.
            deployment = None
            gc.collect()
            clock = HostClock()
            deployment = workload.build(seed, seconds, **build_args)
            clock.lap()
            deployment.load()
            clock.lap()
            setups.append(clock.reference_s)
        self.deployment = deployment
        self.setup_s = statistics.median(setups)
        self.store_before = store_counters(deployment)
        # The clock laps at evenly spaced simulated instants.  The
        # callbacks touch no simulated state, so the digest is unchanged;
        # they are events, so ``events`` subtracts them again.
        sim = deployment.sim
        laps = max(4, round(LAPS_PER_SECOND * seconds))
        if profiler is not None:
            profiler.enable()
        clock = HostClock()
        for lap in range(1, laps):
            sim.call_at(deployment.config.duration_us * lap / laps, clock.lap)
        try:
            self.metrics = deployment.run()
        finally:
            clock.lap()
            if profiler is not None:
                profiler.disable()
        self.wall_s = clock.wall_s
        self.host_s = clock.reference_s
        self.events = sim.events_processed - (laps - 1)
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    def detail(self) -> Dict[str, Any]:
        metrics = self.metrics
        return {
            "digest": metrics.digest(),
            "latency_samples": metrics.latency().count,
            "finished": metrics.total_finished,
            "committed_by_class": dict(sorted(metrics.committed.items())),
            "events": self.events,
            "run_wall_s": self.wall_s,
            "run_host_s": self.host_s,
            "sim_ms": self.deployment.config.duration_us / 1000.0,
        }


Measured = Tuple[Dict[str, float], Dict[str, Any], List[str]]


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   setup_reps: int) -> Measured:
    run = Run(workload, seed, seconds, setup_reps=setup_reps)
    metrics = run.metrics
    latency = metrics.latency()
    values = {
        "setup_s": run.setup_s,
        "host_txn_per_s": metrics.total_finished / run.host_s,
        "host_peak_rss_mb": run.peak_rss_mb,
        "sim_commit_per_s": metrics.tps,
        "sim_p50_ms": latency.p50_us / 1000.0,
        "sim_p99_ms": latency.p99_us / 1000.0,
        "sim_commit_ratio": metrics.total_committed / metrics.total_finished,
    }
    return values, run.detail(), check_outputs(workload, run.deployment)


def run_per_layer(workload: Workload, seed: int, seconds: float,
                  smoke: bool) -> Measured:
    seconds *= TRACE_FRACTION
    plain = Run(workload, seed, seconds)
    values = exact_metrics(plain.deployment, plain.metrics, plain.events,
                           plain.store_before, workload.kind)
    values["sim.host_events_per_s"] = plain.events / plain.host_s
    detail = plain.detail()
    failures = check_outputs(workload, plain.deployment)

    profiler = cProfile.Profile()
    traced = Run(workload, seed, seconds, profiler=profiler)
    profiler.create_stats()
    trace = fold_profile(profiler.stats)
    if traced.metrics.digest() != detail["digest"]:
        failures.append("profiling changed the run's digest")
    for metric in PER_LAYER:
        layer, _dot, what = metric.name.partition(".")
        if what == "self_share":
            values[metric.name] = trace["layers"][layer]["self_share"]
    values["trace.overhead_ratio"] = traced.host_s / plain.host_s
    trace.update(workload=workload.name, seed=seed, sim_ms=detail["sim_ms"],
                 untraced_host_s=plain.host_s, traced_host_s=traced.host_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    detail["calls_in"] = {
        layer: trace["layers"][layer]["calls_in"] for layer in LAYERS
    }
    detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    del traced, plain

    values.update(run_probes(smoke))

    # Tooling overhead, always on the same TPC-C configuration so the two
    # rows mean the same thing in every workload's ledger.
    contended = WORKLOADS["tpcc_contended"]
    base = Run(contended, seed, seconds)
    with_obs = Run(contended, seed, seconds, observability=True)
    log, chain = make_sanitizers()
    with_san = Run(contended, seed, seconds, interceptors=chain)
    if not log.clean:
        failures.append(f"sanitizers: {log.summary()}")
    for tooled in (with_obs, with_san):
        if tooled.metrics.digest() != base.metrics.digest():
            failures.append("tooling changed the tpcc_contended digest")
    values["obs.overhead_ratio"] = with_obs.host_s / base.host_s
    values["san.overhead_ratio"] = with_san.host_s / base.host_s
    return values, detail, failures


def one_run(args: argparse.Namespace) -> int:
    carried = [name for name in SCRUBBED_ENV if os.environ.get(name)]
    if carried:
        print(f"refusing to measure with {', '.join(carried)} set: it "
              "switches tooling on inside the measured program",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        values, detail, failures = run_per_layer(
            workload, args.seed, args.seconds, args.smoke)
        registry = PER_LAYER
    else:
        values, detail, failures = run_end_to_end(
            workload, args.seed, args.seconds,
            1 if args.smoke else SETUP_REPS)
        registry = END_TO_END
    for metric in registry:
        print(f"{metric.name:34s} {values[metric.name]:>16.6g} {metric.unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    detail["check_failures"] = failures
    print("detail " + json.dumps(detail, sort_keys=True))
    attempted = detail["finished"]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in registry
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# the ledger: every workload, repetitions in fresh subprocesses
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> Optional[Dict[str, Any]]:
    """One fresh subprocess of the one-run form; None if it failed."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def _e2e_digest_note(seed: int) -> Optional[str]:
    """Informational: tpcc_contended at 200 simulated ms *is* perfsuite's
    ``tpcc_e2e``, so its digest should match ``BENCH_perf.json``."""
    path = os.path.join(ROOT, "BENCH_perf.json")
    if seed != 1 or not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)["benchmarks"]["tpcc_e2e"]["after"]["digest"]
    seconds = 200.0 * RUN_SECONDS / WORKLOADS["tpcc_contended"].sim_ms
    # smoke: one set-up is enough, only the digest is read
    result = _child("tpcc_contended", 1, seconds, 0, smoke=True)
    same = result is not None and result["detail"]["digest"] == pinned
    return ("tpcc_contended at 200 ms reproduces the tpcc_e2e digest"
            if same else "tpcc_contended at 200 ms does NOT reproduce the "
            "tpcc_e2e digest in BENCH_perf.json")


def _measure_workload(name: str, seed: int, seconds: float, reps: int,
                      smoke: bool) -> Dict[str, Any]:
    """All runs of one workload, aggregated and cross-checked."""
    print(f"== {name} ({WORKLOADS[name].clients} closed-loop clients)")
    runs = [_child(name, seed, seconds, 0, smoke) for _ in range(reps)]
    # Smoke skips the per-layer run: its three extra set-ups per workload
    # are most of a minute.
    if not smoke:
        runs.append(_child(name, seed, seconds, 1, smoke))
    entry: Dict[str, Any] = {"config": WORKLOADS[name].describe()}
    problems: List[str] = []
    if None in runs:
        problems.append("a run crashed")
    for run in filter(None, runs):
        problems.extend(run["detail"]["check_failures"])
    good = [run for run in runs[:reps] if run is not None]
    if len({run["detail"]["digest"] for run in good}) > 1:
        problems.append("digest differs between repetitions")
    entry["end_to_end"] = {}
    for metric in END_TO_END if good else ():
        values = [run["metrics"][metric.name]["value"] for run in good]
        if metric.clock == "sim" and len(set(values)) > 1:
            problems.append(f"{metric.name} differs between repetitions")
        summary = _summary(values, metric.unit)
        entry["end_to_end"][metric.name] = summary
        print(f"  {metric.name:32s} {summary['median']:>14.6g} "
              f"{metric.unit:6s} [{summary['q1']:.6g} .. {summary['q3']:.6g}]"
              f" n={summary['n']} ({metric.clock})")
    if good:
        detail = good[0]["detail"]
        entry["digest"] = detail["digest"]
        entry["latency_samples"] = detail["latency_samples"]
        entry["attempted"] = detail["finished"]
        print(f"  digest {detail['digest']}  latency samples "
              f"{detail['latency_samples']}  per class "
              f"{detail['committed_by_class']}")
    if not smoke and runs[-1] is not None:
        layer_run = runs[-1]
        entry["per_layer"] = layer_run["metrics"]
        entry["calls_in"] = layer_run["detail"]["calls_in"]
        entry["trace_file"] = layer_run["detail"]["trace_file"]
        for metric in PER_LAYER:
            value = layer_run["metrics"][metric.name]["value"]
            print(f"  {metric.name:32s} {value:>14.6g} {metric.unit:6s} "
                  f"({metric.kind})")
    entry["failed_share"] = 1.0 if problems else 0.0
    entry["problems"] = problems
    print(f"  failed_share {entry['failed_share']:.0f}"
          + "".join(f"\n  PROBLEM: {p}" for p in problems))
    return entry


def ledger(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds * (SMOKE_FRACTION if args.smoke else 1.0)
    reps = 1 if args.smoke else args.reps
    report: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": args.seed, "seconds": seconds, "reps": reps,
        "smoke": args.smoke,
        "metrics": {
            "end_to_end": [metric._asdict() for metric in END_TO_END],
            "per_layer": [metric._asdict() for metric in PER_LAYER],
        },
        "workloads": {
            name: _measure_workload(name, args.seed, seconds, reps, args.smoke)
            for name in names
        },
    }
    if not args.smoke and not args.workload:
        report["tpcc_e2e_digest_note"] = _e2e_digest_note(args.seed)
        print(report["tpcc_e2e_digest_note"] or "")
    report["claim"] = None
    out = args.out or os.path.join(OUT_DIR, "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    failed = {name: entry["failed_share"]
              for name, entry in report["workloads"].items()}
    print(json.dumps({"out": os.path.relpath(out), "failed_share": failed,
                      "claim": None}))
    return 1 if any(failed.values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="run length the simulated durations scale "
                             f"with (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--reps", type=int, default=3,
                        help="ledger: untraced repetitions per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger: tenth-length runs, 1 rep, end-to-end "
                             "only; one run: 1 set-up, small probes")
    parser.add_argument("--out", help="ledger: report path "
                                      "(default: out/ledger.json)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return ledger(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
