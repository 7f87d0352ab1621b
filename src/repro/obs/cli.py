"""``repro-obs`` -- render and validate metrics snapshots.

Subcommands::

    repro-obs render SNAPSHOT.json [--prometheus]
        Render a snapshot file written by ``python -m repro.bench NAME
        --obs DIR``: the per-phase latency table (the paper's Table-4
        shape) and key gauges.

    repro-obs validate SNAPSHOT.json
        Exit 0 when the file is a valid ``repro-obs/2`` document.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.exporters import (OBS_SCHEMA, PHASE_TABLE_HEADERS,
                                 phase_table_rows, print_table,
                                 to_prometheus, validate_snapshot)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_phase_table(snapshot: dict) -> None:
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


def main(argv: Optional[List[str]] = None) -> int:
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
