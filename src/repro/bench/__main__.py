"""Command-line entry point: run any experiment of the registry.

Each named experiment runs its sweep, prints its table, and reports
whether the paper's qualitative result still shows; the exit status is 1
when any shape was lost.  Examples::

    python -m repro.bench --list
    python -m repro.bench fig5
    REPRO_BENCH_PROFILE=smoke python -m repro.bench fig8 table3
    python -m repro.bench fig10 --profile full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.experiments import EXPERIMENTS, PROFILES, bench_profile
from repro.obs.exporters import print_table


def _write_snapshots(directory, experiment, snapshots) -> int:
    """Write each ``(label, snapshot)`` pair next to the printed results
    as ``<experiment>-<NN>-<label>.json`` (+ Prometheus text)."""
    from repro.obs import to_json, to_prometheus

    os.makedirs(directory, exist_ok=True)
    for index, (label, snapshot) in enumerate(snapshots):
        stem = os.path.join(directory, f"{experiment}-{index:02d}-{label}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            handle.write(to_json(snapshot))
        with open(stem + ".prom", "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(snapshot))
    return len(snapshots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", metavar="NAME",
                        help=f"one or more of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--profile", choices=tuple(PROFILES),
                        help="sizing profile (default: REPRO_BENCH_PROFILE "
                             "or 'quick'); scale and elastic run only their "
                             "smallest point under 'smoke'")
    parser.add_argument("--cprofile", metavar="STATS_FILE", nargs="?",
                        const="-", default=None,
                        help="run under cProfile; write pstats to STATS_FILE "
                             "or print the top functions when omitted")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the repro.san sanitizers to every "
                             "simulated cluster (slow; fails on SI/GC "
                             "invariant violations)")
    parser.add_argument("--obs", metavar="DIR", nargs="?",
                        const="obs-snapshots", default=None,
                        help="enable repro.obs on every simulated cluster "
                             "and write one metrics snapshot per run into "
                             "DIR (default: obs-snapshots/)")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name in EXPERIMENTS:
            print(name)
        return 0
    for name in args.experiments:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}")
    profile = PROFILES[args.profile] if args.profile else bench_profile()
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    sink = None
    if args.obs is not None:
        from repro import obs

        os.environ[obs.ENV_FLAG] = "1"
        sink = obs.install_sink()

    profiler = None
    if args.cprofile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    lost = 0
    try:
        for name in args.experiments:
            experiment = EXPERIMENTS[name]
            started = time.time()
            first_snapshot = len(sink) if sink is not None else 0
            rows = experiment.run(profile)
            print_table(list(experiment.columns), experiment.cells(rows),
                        title=experiment.title)
            try:
                experiment.check(rows)
            except AssertionError as failure:
                lost += 1
                print(f"[{name}: shape LOST -- {failure}]")
            else:
                print(f"[{name}: shape holds]")
            print(f"[{name} finished in {time.time() - started:.1f}s]")
            if sink is not None:
                written = _write_snapshots(args.obs, name,
                                           sink[first_snapshot:])
                if written:
                    print(f"[{written} obs snapshot(s) written to "
                          f"{args.obs}/]")
    finally:
        if profiler is not None:
            profiler.disable()
            if args.cprofile == "-":
                import pstats

                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(30)
            else:
                profiler.dump_stats(args.cprofile)
                print(f"[cProfile stats written to {args.cprofile}]",
                      file=sys.stderr)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
