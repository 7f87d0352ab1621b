"""``repro-obs`` -- render and validate metrics snapshots.

Subcommands::

    repro-obs render SNAPSHOT.json [--prometheus]
        Render a snapshot file written by ``python -m repro.bench NAME
        --obs DIR``: the per-phase latency table (the paper's Table-4
        shape) and key gauges.

    repro-obs validate SNAPSHOT.json
        Exit 0 when the file is a valid ``repro-obs/2`` document.

    repro-obs smoke
        CI gate: tiny bench with metrics enabled; asserts the snapshot
        schema validates and the phase table is populated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.exporters import (OBS_SCHEMA, PHASE_TABLE_HEADERS,
                                 phase_table_rows, to_prometheus,
                                 validate_snapshot)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_phase_table(snapshot: dict) -> None:
    from repro.bench.tables import print_table

    rows = phase_table_rows(snapshot)
    if rows:
        print_table(PHASE_TABLE_HEADERS, rows,
                    title="Per-phase latency breakdown (Table-4 shape)")
    else:
        print("(no finished transaction spans in this snapshot)")


def _print_highlights(snapshot: dict) -> None:
    """A compact live view over the most informative gauges."""
    gauges = snapshot.get("gauges", {})
    spans = snapshot.get("spans", {})
    picks = []
    for series, value in gauges.items():
        if series.startswith(("repro_pn_txns", "repro_buffer_hit_ratio",
                              "repro_cm_activity", "repro_fabric_totals",
                              "repro_replication_copies")):
            picks.append((series, value))
    if picks:
        from repro.bench.tables import print_table

        print_table(["Series", "Value"], picks, title="Key gauges")
    print(f"spans: {spans.get('finished_roots', 0)} finished, "
          f"{spans.get('kept', 0)} kept, {spans.get('dropped', 0)} dropped")


def _cmd_render(args: argparse.Namespace) -> int:
    snapshot = _load(args.snapshot)
    problems = validate_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"invalid snapshot: {problem}", file=sys.stderr)
        return 2
    if args.prometheus:
        sys.stdout.write(to_prometheus(snapshot))
        return 0
    _print_phase_table(snapshot)
    _print_highlights(snapshot)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_snapshot(_load(args.snapshot))
    for problem in problems:
        print(f"invalid snapshot: {problem}", file=sys.stderr)
    if not problems:
        print(f"{args.snapshot}: valid {OBS_SCHEMA} snapshot")
    return 1 if problems else 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.bench.experiments import PROFILES, run_phase_breakdown

    snapshot = run_phase_breakdown(PROFILES[args.profile or "smoke"])
    problems = validate_snapshot(snapshot)
    for problem in problems:
        print(f"SMOKE FAIL: {problem}", file=sys.stderr)
    rows = phase_table_rows(snapshot)
    if not rows:
        print("SMOKE FAIL: empty phase breakdown", file=sys.stderr)
        return 1
    snapshot_col = PHASE_TABLE_HEADERS.index("Snapshot (ms)")
    commit_col = PHASE_TABLE_HEADERS.index("Commit (ms)")
    missing = [row[0] for row in rows
               if "-" in (row[snapshot_col], row[commit_col])]
    if missing:
        print(f"SMOKE FAIL: phases missing for {missing}", file=sys.stderr)
        return 1
    if problems:
        return 1
    _print_phase_table(snapshot)
    print("obs smoke: snapshot schema valid, "
          f"{len(rows)} transaction types profiled")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.experiments import PROFILES

    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Render and validate repro.obs metrics snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render_parser = sub.add_parser("render", help="render a snapshot file")
    render_parser.add_argument("snapshot")
    render_parser.add_argument("--prometheus", action="store_true",
                               help="emit Prometheus text format instead")
    render_parser.set_defaults(func=_cmd_render)

    validate_parser = sub.add_parser("validate", help="schema check")
    validate_parser.add_argument("snapshot")
    validate_parser.set_defaults(func=_cmd_validate)

    smoke_parser = sub.add_parser("smoke", help="CI smoke gate")
    smoke_parser.add_argument("--profile", choices=tuple(PROFILES))
    smoke_parser.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
